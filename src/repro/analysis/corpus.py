"""Planted-violation corpus for the static analyzer (the gate's teeth).

Mirrors ``sanitizer/planted.py``: every positive scenario plants exactly
one wiring/dataflow violation in a miniature but *consistent* tree (the
same module paths the real passes key on), and every negative control
is a clean tree that must produce zero findings. The gate asserts 100%
detection and 0 false positives — an analyzer change that breaks either
direction fails CI before it can mis-lint the real tree.

This module is data (source strings), deliberately excluded from
the wiring and taint passes via ``astutil.LINT_ONLY_PARTS``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PlantedScenario:
    """One corpus entry: a tree and the rule it must (not) trip."""

    name: str
    expect: str | None  # finding rule id; None → negative control
    files: dict[str, str]


_API = '''\
class CudaRuntime:
    def cudaMalloc(self, nbytes):
        self._entry("cudaMalloc")
        addr = self._device_alloc.alloc(nbytes)
        return addr

    def cudaMemcpy(self, dst, src, nbytes, kind):
        self._entry("cudaMemcpy")
        if self.sanitizer is not None:
            self.sanitizer.on_copy(self, None, kind, dst, src, nbytes, 0, 0, False)
        buf = self._buffer(dst)
        buf.contents.copy_from(src, 0, 0, nbytes)

    def replay_allocations(self, entries):
        for op, nbytes, addr, device in entries:
            if op == "malloc":
                self.cudaMalloc(nbytes)
'''

_INTERFACE = '''\
class CudaDispatchBase:
    def malloc(self, nbytes):
        self._dispatch("cudaMalloc", payload_bytes=16)
        return self.runtime.cudaMalloc(nbytes)

    def memcpy(self, dst, src, nbytes, kind):
        self._dispatch("cudaMemcpy", payload_bytes=32)
        return self.runtime.cudaMemcpy(dst, src, nbytes, kind)
'''

_MEMORY = '''\
class Arena:
    def alloc(self, nbytes):
        addr = self._take(nbytes)
        if self.sanitizer is not None:
            self.sanitizer.on_arena_alloc(self, addr, nbytes)
        return addr
'''

_TRAMPOLINE = '''\
class CracBackend:
    def _log(self, op, nbytes, addr):
        self.replay_log.append(op, nbytes, addr)

    def malloc(self, nbytes):
        addr = super().malloc(nbytes)
        self._log("malloc", nbytes, addr)
        return addr
'''

_PLUGIN = '''\
class CracPlugin:
    def on_precheckpoint(self, image):
        image.add_blob("crac/buffers", self._pack_buffers())
        image.add_blob("crac/replay-log", self._pack_log())
'''

_SESSION = '''\
def restart(image, fresh):
    log = image.blob("crac/replay-log")
    buffers = image.blobs.get("crac/buffers")
    return log, buffers
'''

_ERRORS = '''\
class CudaErrorCode(enum.Enum):
    SUCCESS = 0
    INVALID_VALUE = 11


SEVERITY = {
    CudaErrorCode.INVALID_VALUE: ErrorSeverity.PROGRAM,
}
'''

_CUBLAS = '''\
CUBLAS_FATBIN = FatBinary(
    name="libcublas.fatbin", kernels=("cublas_sdot_kernel",)
)


class CuBlas:
    def sdot(self, x_ptr, y_ptr, n):
        self._call("cublasSdot", "cublas_sdot_kernel", flop=2.0 * n)
'''

#: fully wired miniature tree — every positive is a one-file delta
CLEAN_TREE: dict[str, str] = {
    "repro/cuda/api.py": _API,
    "repro/cuda/interface.py": _INTERFACE,
    "repro/gpu/memory.py": _MEMORY,
    "repro/core/trampoline.py": _TRAMPOLINE,
    "repro/core/plugin.py": _PLUGIN,
    "repro/core/session.py": _SESSION,
    "repro/cuda/errors.py": _ERRORS,
    "repro/cuda/cublas.py": _CUBLAS,
}


def _tree(**overrides: str) -> dict[str, str]:
    """Clean tree plus overrides; ``a__b__c_py`` keys mean ``a/b/c.py``."""
    files = dict(CLEAN_TREE)
    for key, source in overrides.items():
        path = key.replace("__", "/")
        if path.endswith("_py"):
            path = path[:-3] + ".py"
        files[path] = source
    return files


SCENARIOS: tuple[PlantedScenario, ...] = (
    # ---------------------------------------------------------- wiring pass
    PlantedScenario(
        "missing-entry-prologue",
        "wiring/entry-prologue",
        _tree(
            repro__cuda__api_py=_API + '''
    def cudaDeviceReset(self):
        self.device.reset()
''',
            repro__cuda__interface_py=_INTERFACE + '''
    def device_reset(self):
        self._dispatch("cudaDeviceReset", payload_bytes=8)
        return self.runtime.cudaDeviceReset()
''',
        ),
    ),
    PlantedScenario(
        "trace-unattributed-entry",
        "wiring/trace-unattributed",
        _tree(
            repro__cuda__api_py=_API + '''
    def cudaDeviceReset(self):
        self._entry("cudaDeviceReset")
        self.device.reset()
''',
            repro__cuda__interface_py=_INTERFACE + '''
    def device_reset(self):
        return self.runtime.cudaDeviceReset()
''',
        ),
    ),
    PlantedScenario(
        "dispatch-without-entry",
        "wiring/dispatch-unentered",
        _tree(
            repro__cuda__interface_py=_INTERFACE + '''
    def device_reset(self):
        self._dispatch("cudaDeviceReset", payload_bytes=8)
''',
        ),
    ),
    PlantedScenario(
        "api-without-call-site",
        "wiring/api-unreachable",
        _tree(
            repro__cuda__api_py=_API + '''
    def cudaDeviceReset(self):
        self._entry("cudaDeviceReset")
        self.device.reset()
''',
            repro__cuda__interface_py=_INTERFACE + '''
    def device_reset(self):
        self._dispatch("cudaDeviceReset", payload_bytes=8)
''',
        ),
    ),
    PlantedScenario(
        "data-plane-api-without-sanitizer-model",
        "wiring/sanitizer-model-missing",
        _tree(
            repro__cuda__api_py=_API + '''
    def cudaMemset(self, addr, value, nbytes):
        self._entry("cudaMemset")
        buf = self._buffer(addr)
        buf.contents.fill(value, 0, nbytes)
''',
            repro__cuda__interface_py=_INTERFACE + '''
    def memset(self, addr, value, nbytes):
        self._dispatch("cudaMemset", payload_bytes=24)
        return self.runtime.cudaMemset(addr, value, nbytes)
''',
        ),
    ),
    PlantedScenario(
        "logged-op-replay-cannot-handle",
        "wiring/log-op-unreplayed",
        _tree(
            repro__core__trampoline_py=_TRAMPOLINE + '''
    def malloc_host(self, nbytes):
        addr = super().malloc_host(nbytes)
        self._log("malloc_host", nbytes, addr)
        return addr
''',
        ),
    ),
    PlantedScenario(
        "alloc-override-never-logged",
        "wiring/unlogged-alloc",
        _tree(
            repro__core__trampoline_py=_TRAMPOLINE + '''
    def free(self, addr):
        super().free(addr)
''',
        ),
    ),
    PlantedScenario(
        "alloc-run-never-logged",
        "wiring/unlogged-alloc",
        _tree(
            repro__core__trampoline_py=_TRAMPOLINE + '''
    def malloc_run(self, nbytes, n):
        return self.runtime.malloc_run(nbytes, n)
''',
        ),
    ),
    PlantedScenario(
        "alloc-run-logs-op-replay-cannot-handle",
        "wiring/log-op-unreplayed",
        _tree(
            repro__core__trampoline_py=_TRAMPOLINE + '''
    def malloc_run(self, nbytes, n):
        addrs = self.runtime.malloc_run(nbytes, n)
        self._log_run("malloc_run", nbytes, addrs, 0)
        return addrs
''',
        ),
    ),
    PlantedScenario(
        "captured-blob-never-restored",
        "wiring/capture-blob-unrestored",
        _tree(
            repro__core__plugin_py=_PLUGIN + '''
    def on_precheckpoint_streams(self, image):
        image.add_blob("crac/streams", self._pack_streams())
''',
        ),
    ),
    PlantedScenario(
        "error-code-without-severity",
        "wiring/severity-unclassified",
        _tree(
            repro__cuda__errors_py='''\
class CudaErrorCode(enum.Enum):
    SUCCESS = 0
    INVALID_VALUE = 11
    STREAM_STALLED = 994


SEVERITY = {
    CudaErrorCode.INVALID_VALUE: ErrorSeverity.PROGRAM,
}
''',
        ),
    ),
    PlantedScenario(
        "library-kernel-not-in-fatbin",
        "wiring/library-kernel-unregistered",
        _tree(
            repro__cuda__cublas_py=_CUBLAS + '''
    def sgemv(self, a_ptr, x_ptr, y_ptr, m, n):
        self._call("cublasSgemv", "cublas_sgemv_kernel", flop=2.0 * m * n)
''',
        ),
    ),
    # ----------------------------------------------------------- taint pass
    PlantedScenario(
        "aliased-wall-clock-into-kernel-args",
        "det/nondet-into-kernel",
        _tree(
            repro__apps__workload_py='''\
from time import time as now_s


def run_step(backend):
    t = now_s()
    backend.launch("scale_kernel", args=(t,))
''',
        ),
    ),
    PlantedScenario(
        "aliased-np-random-into-digest",
        "det/nondet-into-capture",
        _tree(
            repro__harness__capture_ext_py='''\
import numpy.random as npr


def capture_extra(image):
    noise = npr.random()
    image.add_blob("crac/noise", noise)
''',
        ),
    ),
    PlantedScenario(
        "unseeded-default-rng",
        "det/unseeded-rng",
        _tree(
            repro__apps__noise_py='''\
import numpy as np


def make_noise():
    rng = np.random.default_rng()
    return rng
''',
        ),
    ),
    PlantedScenario(
        "stream-used-after-destroy",
        "det/use-after-destroy",
        _tree(
            repro__apps__teardown_py='''\
def teardown(rt, buf):
    stream = rt.cudaStreamCreate()
    rt.cudaStreamDestroy(stream)
    rt.cudaMemcpy(buf, 0, 16, "d2h", stream=stream)
''',
        ),
    ),
    PlantedScenario(
        "launch-with-no-sync-before-cut",
        "det/unsynced-launch",
        _tree(
            repro__harness__cutter_py='''\
def cut_without_drain(backend, session):
    backend.launch("step_kernel", args=())
    session.checkpoint()
''',
        ),
    ),
    PlantedScenario(
        "device-pointer-escapes-to-module-global",
        "det/pointer-escape",
        _tree(
            repro__apps__leak_py='''\
_PTRS = []


def leak(rt):
    p = rt.cudaMalloc(1024)
    _PTRS.append(p)
    return p
''',
        ),
    ),
    # ------------------------------------------------- lint (per-line) pass
    PlantedScenario(
        "aliased-perf-counter-import",
        "lint/nondeterminism",
        _tree(
            repro__apps__measure_py='''\
from time import perf_counter


def measure():
    return perf_counter()
''',
        ),
    ),
    PlantedScenario(
        "restore-side-dict-iteration",
        "lint/dict-iteration",
        _tree(
            repro__dmtcp__restore_ext_py='''\
def restore_pages(image, vas):
    for addr, data in image.pages.items():
        vas.write(addr, data)
''',
        ),
    ),
    PlantedScenario(
        "raw-raise-in-cuda-path",
        "lint/raw-raise",
        _tree(
            repro__cuda__checks_py='''\
def check_addr(addr):
    if addr < 0:
        raise ValueError("bad addr")
''',
        ),
    ),
    PlantedScenario(
        "unparseable-module",
        "lint/syntax",
        _tree(
            repro__cuda__checks_py='''\
def check_addr(addr)
    return addr >= 0
''',
        ),
    ),
    # ------------------------------------------------------ negative controls
    PlantedScenario("clean-wired-tree", None, _tree()),
    PlantedScenario(
        "alloc-run-logged-in-bulk",
        None,
        _tree(
            repro__core__trampoline_py=_TRAMPOLINE + '''
    def malloc_run(self, nbytes, n):
        addrs = self.runtime.malloc_run(nbytes, n)
        self._log_run("malloc", nbytes, addrs, 0)
        return addrs
''',
        ),
    ),
    PlantedScenario(
        "seeded-rng-and-virtual-clock",
        None,
        _tree(
            repro__apps__noise_py='''\
import numpy as np


def make_noise(seed, clock):
    rng = np.random.default_rng(seed)
    t = clock.now_ns
    return rng.random() + t
''',
        ),
    ),
    PlantedScenario(
        "launch-synced-before-cut-destroy-last",
        None,
        _tree(
            repro__harness__cutter_py='''\
def drain_then_cut(backend, session, rt):
    stream = rt.cudaStreamCreate()
    backend.launch("step_kernel", args=(), stream=stream)
    rt.cudaStreamSynchronize(stream)
    session.checkpoint()
    rt.cudaStreamDestroy(stream)
''',
        ),
    ),
    PlantedScenario(
        "sorted-restore-iteration",
        None,
        _tree(
            repro__dmtcp__restore_ext_py='''\
def restore_pages(image, vas):
    for addr, data in sorted(image.pages.items()):
        vas.write(addr, data)
''',
        ),
    ),
    PlantedScenario(
        "suppressed-wall-clock-bench",
        None,
        _tree(
            repro__apps__bench_py='''\
import time


def wall_elapsed(fn):
    t0 = time.perf_counter()  # lint: allow
    fn()
    return time.perf_counter() - t0  # lint: allow
''',
        ),
    ),
)
