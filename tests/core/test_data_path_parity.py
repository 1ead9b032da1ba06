"""Exact parity of the launch, memset and memcpy path.

One scripted data-path sequence runs through the CRAC trampoline, the
runtime and the device: launches with and without ``managed=``, a full
and a partial memset, and memcpy h2d, d2h and d2d, sync and async, with
numpy and pinned host ends. It runs with ``fsgsbase`` on and off, with
a coordinator armed to fire a checkpoint at each of the three calls of
one launch batch, under a tracer, under a fault domain that retries an
injected transfer corruption and restores from an ECC error, and across
a kill and ``restart_latest``. Every observable is pinned to a literal:
the virtual clock (exact), the syscall and fs-switch counters,
the dispatch and library call counts, the device accounting, the buffer
contents, and the API spans when traced. A rework of the data path must
reproduce every literal.
"""

import zlib

import numpy as np
import pytest

from repro.core import CracSession
from repro.cuda.api import FatBinary, ManagedUse
from repro.dmtcp.store import CheckpointStore
from repro.harness.fault_injection import FaultInjector, FaultSpec

FB = FatBinary("datapath.fatbin", ("axpy", "touch"))
N = 1024


def _state(session, ptrs, host):
    proc, rt, backend = session.process, session.runtime, session.backend
    return {
        "clock_ns": proc.clock_ns,
        "syscall_count": proc.syscall_count,
        "fs_switch_count": proc.fs_switch_count,
        "call_counter": sorted(backend.call_counter.items()),
        "api_log": sorted(rt.api_log.items()),
        "devices": [
            (d.total_kernel_ns, d.total_kernels,
             sorted(d.copied_bytes.items()), d.ecc_errors)
            for d in rt.devices
        ],
        "contents": [
            zlib.crc32(rt.buffer(p).contents.read_bytes(0, N)) for p in ptrs
        ],
        "host": zlib.crc32(host.tobytes()),
    }


def _alloc(b):
    """The buffers of one sequence: two device, one pinned, one managed."""
    return b.malloc(N), b.malloc(N), b.malloc_host(N), b.malloc_managed(N)


def _ops(b, ptrs, host, *, fire_at=None, coordinator=None):
    """The data-path calls; ``fire_at`` arms ``coordinator`` to fire at
    that call of the first launch batch (1, 2 or 3)."""
    d1, d2, h, m = ptrs
    stream = b.stream_create()
    b.memcpy(d1, host, N, "h2d")  # numpy source, sync
    b.memcpy(h, d1, N, "d2h")  # pinned destination, sync
    b.memset(d2, 7, N)  # full
    b.memset(d2, 3, 100, stream=stream, async_=True)  # partial, async
    if fire_at is not None:
        coordinator.schedule_checkpoint_at_call(fire_at)

    def axpy():
        view = b.device_view(d1, N)
        np.add(view, 1, out=view)

    b.launch("axpy", axpy, flop=2e6, bytes_touched=8e6)
    b.launch("touch", managed=[ManagedUse(m, 0, N, "rw")], stream=stream,
             duration_ns=40_000)
    b.launch("touch", managed=[ManagedUse(m, 256, 512, "r")],
             flop=1e5, bytes_touched=1e5)
    b.memcpy(d2, d1, N, "d2d", stream=stream, async_=True)
    b.memcpy(d1, h, N, "h2d", stream=stream, async_=True)  # pinned source
    b.memcpy(host, d2, N, "d2h")  # numpy destination, sync
    b.memcpy(h, d2, 512, "d2h", stream=stream, async_=True,
             dst_offset=128, src_offset=256)
    b.memcpy(d2, host, 256, "h2d", async_=True, dst_offset=512)
    b.memcpy(d1, d2, 256, "d2d", dst_offset=64, src_offset=32)
    b.stream_synchronize(stream)
    b.device_synchronize()


def _session(**kw):
    session = CracSession(seed=5, **kw)
    session.backend.register_app_binary(FB)
    return session


def run_plain(fsgsbase, fire_at):
    """The sequence, optionally with a checkpoint fired mid-launch."""
    session = _session(fsgsbase=fsgsbase)
    host = np.arange(N, dtype=np.uint32).astype(np.uint8)
    ptrs = _alloc(session.backend)
    _ops(session.backend, ptrs, host, fire_at=fire_at,
         coordinator=session.coordinator)
    return {
        "cuts": [
            (image.created_at_ns, image.checkpoint_time_ns)
            for image in session.coordinator.images
        ],
        "state": _state(session, ptrs, host),
    }


def run_traced():
    """The sequence under a tracer: the API spans are pinned too."""
    session = _session()
    tracer = session.enable_trace()
    host = np.arange(N, dtype=np.uint32).astype(np.uint8)
    ptrs = _alloc(session.backend)
    _ops(session.backend, ptrs, host)
    return {
        "state": _state(session, ptrs, host),
        "api": [
            (s.name, s.start_ns, s.end_ns, s.segment)
            for s in tracer.spans if s.cat == "api"
        ],
    }


def run_fault_domain():
    """The sequence under a fault domain: the first transfer is
    corrupted and retried; after a committed checkpoint an ECC error on
    a launch restores from the store and re-executes it."""
    inj = FaultInjector([FaultSpec("xfer-corrupt", at_count=1)], seed=3)
    session = _session(fault_injector=inj)
    domain = session.enable_fault_domain(CheckpointStore())
    host = np.arange(N, dtype=np.uint32).astype(np.uint8)
    ptrs = _alloc(session.backend)
    _ops(session.backend, ptrs, host)
    domain.checkpoint()
    inj.arm(FaultSpec("ecc", at_count=inj.visits["ecc"] + 1))
    _ops(session.backend, ptrs, host)
    rep = domain.report
    return {
        "ladder": (rep.retries, rep.restores, rep.backoff_ns,
                   rep.lost_work_ns),
        "state": _state(session, ptrs, host),
    }


def run_restart():
    """The sequence, a committed checkpoint, kill + ``restart_latest``,
    and the sequence again on the restarted process."""
    session = _session()
    store = CheckpointStore()
    host = np.arange(N, dtype=np.uint32).astype(np.uint8)
    ptrs = _alloc(session.backend)
    _ops(session.backend, ptrs, host)
    session.checkpoint(store=store)
    before = _state(session, ptrs, host)
    session.kill()
    report = session.restart_latest(store)
    _ops(session.backend, ptrs, host)
    return {
        "before": before,
        "restart_ns": report.restart_time_ns,
        "restarted": _state(session, ptrs, host),
    }


@pytest.mark.parametrize("fsgsbase", [False, True])
@pytest.mark.parametrize("fire_at", [None, 1, 2, 3])
def test_data_path_parity(fsgsbase, fire_at):
    assert run_plain(fsgsbase, fire_at) == EXPECTED[fsgsbase, fire_at]


def test_traced_data_path_parity():
    assert run_traced() == EXPECTED_TRACED


def test_fault_domain_data_path_parity():
    assert run_fault_domain() == EXPECTED_FAULT_DOMAIN


def test_restart_data_path_parity():
    assert run_restart() == EXPECTED_RESTART


#: recorded before the data path was made lean; re-recorded when virtual
#: time became whole ns (every time moved by rounding alone)
EXPECTED = {(False, None): {'cuts': [],
                 'state': {'clock_ns': 280157466,
                           'syscall_count': 59,
                           'fs_switch_count': 58,
                           'call_counter': [('__cudaRegisterFatBinary', 1),
                                            ('__cudaRegisterFunction', 2),
                                            ('cudaDeviceSynchronize', 1),
                                            ('cudaLaunchKernel', 3),
                                            ('cudaMalloc', 2),
                                            ('cudaMallocHost', 1),
                                            ('cudaMallocManaged', 1),
                                            ('cudaMemcpy', 4),
                                            ('cudaMemcpyAsync', 4),
                                            ('cudaMemset', 1),
                                            ('cudaMemsetAsync', 1),
                                            ('cudaPopCallConfiguration', 3),
                                            ('cudaPushCallConfiguration', 3),
                                            ('cudaStreamCreate', 1),
                                            ('cudaStreamSynchronize', 1)],
                           'api_log': [('__cudaRegisterFatBinary', 1),
                                       ('__cudaRegisterFunction', 2),
                                       ('cudaDeviceSynchronize', 1),
                                       ('cudaLaunchKernel', 3),
                                       ('cudaMalloc', 2),
                                       ('cudaMallocHost', 1),
                                       ('cudaMallocManaged', 1),
                                       ('cudaMemcpy', 4),
                                       ('cudaMemcpyAsync', 4),
                                       ('cudaMemset', 1),
                                       ('cudaMemsetAsync', 1),
                                       ('cudaStreamCreate', 1),
                                       ('cudaStreamSynchronize', 1)],
                           'devices': [(82282,
                                        3,
                                        [('d2d', 2404),
                                         ('d2h', 3111),
                                         ('h2d', 2992)],
                                        0)],
                           'contents': [3790717635,
                                        3778451967,
                                        2184014335,
                                        4021661486],
                           'host': 3778451967}},
 (False, 1): {'cuts': [(370033952, 97126934)],
              'state': {'clock_ns': 377284400,
                        'syscall_count': 59,
                        'fs_switch_count': 58,
                        'call_counter': [('__cudaRegisterFatBinary', 1),
                                         ('__cudaRegisterFunction', 2),
                                         ('cudaDeviceSynchronize', 1),
                                         ('cudaLaunchKernel', 3),
                                         ('cudaMalloc', 2),
                                         ('cudaMallocHost', 1),
                                         ('cudaMallocManaged', 1),
                                         ('cudaMemcpy', 4),
                                         ('cudaMemcpyAsync', 4),
                                         ('cudaMemset', 1),
                                         ('cudaMemsetAsync', 1),
                                         ('cudaPopCallConfiguration', 3),
                                         ('cudaPushCallConfiguration', 3),
                                         ('cudaStreamCreate', 1),
                                         ('cudaStreamSynchronize', 1)],
                        'api_log': [('__cudaRegisterFatBinary', 1),
                                    ('__cudaRegisterFunction', 2),
                                    ('cudaDeviceSynchronize', 2),
                                    ('cudaLaunchKernel', 3),
                                    ('cudaMalloc', 2),
                                    ('cudaMallocHost', 1),
                                    ('cudaMallocManaged', 1),
                                    ('cudaMemcpy', 4),
                                    ('cudaMemcpyAsync', 4),
                                    ('cudaMemset', 1),
                                    ('cudaMemsetAsync', 1),
                                    ('cudaStreamCreate', 1),
                                    ('cudaStreamSynchronize', 1)],
                        'devices': [(82282,
                                     3,
                                     [('d2d', 2404),
                                      ('d2h', 3111),
                                      ('h2d', 2992)],
                                     0)],
                        'contents': [3790717635,
                                     3778451967,
                                     2184014335,
                                     4021661486],
                        'host': 3778451967}},
 (False, 2): {'cuts': [(370036097, 97126934)],
              'state': {'clock_ns': 377284400,
                        'syscall_count': 59,
                        'fs_switch_count': 58,
                        'call_counter': [('__cudaRegisterFatBinary', 1),
                                         ('__cudaRegisterFunction', 2),
                                         ('cudaDeviceSynchronize', 1),
                                         ('cudaLaunchKernel', 3),
                                         ('cudaMalloc', 2),
                                         ('cudaMallocHost', 1),
                                         ('cudaMallocManaged', 1),
                                         ('cudaMemcpy', 4),
                                         ('cudaMemcpyAsync', 4),
                                         ('cudaMemset', 1),
                                         ('cudaMemsetAsync', 1),
                                         ('cudaPopCallConfiguration', 3),
                                         ('cudaPushCallConfiguration', 3),
                                         ('cudaStreamCreate', 1),
                                         ('cudaStreamSynchronize', 1)],
                        'api_log': [('__cudaRegisterFatBinary', 1),
                                    ('__cudaRegisterFunction', 2),
                                    ('cudaDeviceSynchronize', 2),
                                    ('cudaLaunchKernel', 3),
                                    ('cudaMalloc', 2),
                                    ('cudaMallocHost', 1),
                                    ('cudaMallocManaged', 1),
                                    ('cudaMemcpy', 4),
                                    ('cudaMemcpyAsync', 4),
                                    ('cudaMemset', 1),
                                    ('cudaMemsetAsync', 1),
                                    ('cudaStreamCreate', 1),
                                    ('cudaStreamSynchronize', 1)],
                        'devices': [(82282,
                                     3,
                                     [('d2d', 2404),
                                      ('d2h', 3111),
                                      ('h2d', 2992)],
                                     0)],
                        'contents': [3790717635,
                                     3778451967,
                                     2184014335,
                                     4021661486],
                        'host': 3778451967}},
 (False, 3): {'cuts': [(370038242, 97126934)],
              'state': {'clock_ns': 377284400,
                        'syscall_count': 59,
                        'fs_switch_count': 58,
                        'call_counter': [('__cudaRegisterFatBinary', 1),
                                         ('__cudaRegisterFunction', 2),
                                         ('cudaDeviceSynchronize', 1),
                                         ('cudaLaunchKernel', 3),
                                         ('cudaMalloc', 2),
                                         ('cudaMallocHost', 1),
                                         ('cudaMallocManaged', 1),
                                         ('cudaMemcpy', 4),
                                         ('cudaMemcpyAsync', 4),
                                         ('cudaMemset', 1),
                                         ('cudaMemsetAsync', 1),
                                         ('cudaPopCallConfiguration', 3),
                                         ('cudaPushCallConfiguration', 3),
                                         ('cudaStreamCreate', 1),
                                         ('cudaStreamSynchronize', 1)],
                        'api_log': [('__cudaRegisterFatBinary', 1),
                                    ('__cudaRegisterFunction', 2),
                                    ('cudaDeviceSynchronize', 2),
                                    ('cudaLaunchKernel', 3),
                                    ('cudaMalloc', 2),
                                    ('cudaMallocHost', 1),
                                    ('cudaMallocManaged', 1),
                                    ('cudaMemcpy', 4),
                                    ('cudaMemcpyAsync', 4),
                                    ('cudaMemset', 1),
                                    ('cudaMemsetAsync', 1),
                                    ('cudaStreamCreate', 1),
                                    ('cudaStreamSynchronize', 1)],
                        'devices': [(82282,
                                     3,
                                     [('d2d', 2404),
                                      ('d2h', 3111),
                                      ('h2d', 2992)],
                                     0)],
                        'contents': [3790717635,
                                     3778451967,
                                     2184014335,
                                     4021661486],
                        'host': 3778451967}},
 (True, None): {'cuts': [],
                'state': {'clock_ns': 280144084,
                          'syscall_count': 1,
                          'fs_switch_count': 58,
                          'call_counter': [('__cudaRegisterFatBinary', 1),
                                           ('__cudaRegisterFunction', 2),
                                           ('cudaDeviceSynchronize', 1),
                                           ('cudaLaunchKernel', 3),
                                           ('cudaMalloc', 2),
                                           ('cudaMallocHost', 1),
                                           ('cudaMallocManaged', 1),
                                           ('cudaMemcpy', 4),
                                           ('cudaMemcpyAsync', 4),
                                           ('cudaMemset', 1),
                                           ('cudaMemsetAsync', 1),
                                           ('cudaPopCallConfiguration', 3),
                                           ('cudaPushCallConfiguration', 3),
                                           ('cudaStreamCreate', 1),
                                           ('cudaStreamSynchronize', 1)],
                          'api_log': [('__cudaRegisterFatBinary', 1),
                                      ('__cudaRegisterFunction', 2),
                                      ('cudaDeviceSynchronize', 1),
                                      ('cudaLaunchKernel', 3),
                                      ('cudaMalloc', 2),
                                      ('cudaMallocHost', 1),
                                      ('cudaMallocManaged', 1),
                                      ('cudaMemcpy', 4),
                                      ('cudaMemcpyAsync', 4),
                                      ('cudaMemset', 1),
                                      ('cudaMemsetAsync', 1),
                                      ('cudaStreamCreate', 1),
                                      ('cudaStreamSynchronize', 1)],
                          'devices': [(82282,
                                       3,
                                       [('d2d', 2404),
                                        ('d2h', 3111),
                                        ('h2d', 2992)],
                                       0)],
                          'contents': [3790717635,
                                       3778451967,
                                       2184014335,
                                       4021661486],
                          'host': 3778451967}},
 (True, 1): {'cuts': [(370025164, 97126934)],
             'state': {'clock_ns': 377271018,
                       'syscall_count': 1,
                       'fs_switch_count': 58,
                       'call_counter': [('__cudaRegisterFatBinary', 1),
                                        ('__cudaRegisterFunction', 2),
                                        ('cudaDeviceSynchronize', 1),
                                        ('cudaLaunchKernel', 3),
                                        ('cudaMalloc', 2),
                                        ('cudaMallocHost', 1),
                                        ('cudaMallocManaged', 1),
                                        ('cudaMemcpy', 4),
                                        ('cudaMemcpyAsync', 4),
                                        ('cudaMemset', 1),
                                        ('cudaMemsetAsync', 1),
                                        ('cudaPopCallConfiguration', 3),
                                        ('cudaPushCallConfiguration', 3),
                                        ('cudaStreamCreate', 1),
                                        ('cudaStreamSynchronize', 1)],
                       'api_log': [('__cudaRegisterFatBinary', 1),
                                   ('__cudaRegisterFunction', 2),
                                   ('cudaDeviceSynchronize', 2),
                                   ('cudaLaunchKernel', 3),
                                   ('cudaMalloc', 2),
                                   ('cudaMallocHost', 1),
                                   ('cudaMallocManaged', 1),
                                   ('cudaMemcpy', 4),
                                   ('cudaMemcpyAsync', 4),
                                   ('cudaMemset', 1),
                                   ('cudaMemsetAsync', 1),
                                   ('cudaStreamCreate', 1),
                                   ('cudaStreamSynchronize', 1)],
                       'devices': [(82282,
                                    3,
                                    [('d2d', 2404),
                                     ('d2h', 3111),
                                     ('h2d', 2992)],
                                    0)],
                       'contents': [3790717635,
                                    3778451967,
                                    2184014335,
                                    4021661486],
                       'host': 3778451967}},
 (True, 2): {'cuts': [(370026633, 97126934)],
             'state': {'clock_ns': 377271018,
                       'syscall_count': 1,
                       'fs_switch_count': 58,
                       'call_counter': [('__cudaRegisterFatBinary', 1),
                                        ('__cudaRegisterFunction', 2),
                                        ('cudaDeviceSynchronize', 1),
                                        ('cudaLaunchKernel', 3),
                                        ('cudaMalloc', 2),
                                        ('cudaMallocHost', 1),
                                        ('cudaMallocManaged', 1),
                                        ('cudaMemcpy', 4),
                                        ('cudaMemcpyAsync', 4),
                                        ('cudaMemset', 1),
                                        ('cudaMemsetAsync', 1),
                                        ('cudaPopCallConfiguration', 3),
                                        ('cudaPushCallConfiguration', 3),
                                        ('cudaStreamCreate', 1),
                                        ('cudaStreamSynchronize', 1)],
                       'api_log': [('__cudaRegisterFatBinary', 1),
                                   ('__cudaRegisterFunction', 2),
                                   ('cudaDeviceSynchronize', 2),
                                   ('cudaLaunchKernel', 3),
                                   ('cudaMalloc', 2),
                                   ('cudaMallocHost', 1),
                                   ('cudaMallocManaged', 1),
                                   ('cudaMemcpy', 4),
                                   ('cudaMemcpyAsync', 4),
                                   ('cudaMemset', 1),
                                   ('cudaMemsetAsync', 1),
                                   ('cudaStreamCreate', 1),
                                   ('cudaStreamSynchronize', 1)],
                       'devices': [(82282,
                                    3,
                                    [('d2d', 2404),
                                     ('d2h', 3111),
                                     ('h2d', 2992)],
                                    0)],
                       'contents': [3790717635,
                                    3778451967,
                                    2184014335,
                                    4021661486],
                       'host': 3778451967}},
 (True, 3): {'cuts': [(370028102, 97126934)],
             'state': {'clock_ns': 377271018,
                       'syscall_count': 1,
                       'fs_switch_count': 58,
                       'call_counter': [('__cudaRegisterFatBinary', 1),
                                        ('__cudaRegisterFunction', 2),
                                        ('cudaDeviceSynchronize', 1),
                                        ('cudaLaunchKernel', 3),
                                        ('cudaMalloc', 2),
                                        ('cudaMallocHost', 1),
                                        ('cudaMallocManaged', 1),
                                        ('cudaMemcpy', 4),
                                        ('cudaMemcpyAsync', 4),
                                        ('cudaMemset', 1),
                                        ('cudaMemsetAsync', 1),
                                        ('cudaPopCallConfiguration', 3),
                                        ('cudaPushCallConfiguration', 3),
                                        ('cudaStreamCreate', 1),
                                        ('cudaStreamSynchronize', 1)],
                       'api_log': [('__cudaRegisterFatBinary', 1),
                                   ('__cudaRegisterFunction', 2),
                                   ('cudaDeviceSynchronize', 2),
                                   ('cudaLaunchKernel', 3),
                                   ('cudaMalloc', 2),
                                   ('cudaMallocHost', 1),
                                   ('cudaMallocManaged', 1),
                                   ('cudaMemcpy', 4),
                                   ('cudaMemcpyAsync', 4),
                                   ('cudaMemset', 1),
                                   ('cudaMemsetAsync', 1),
                                   ('cudaStreamCreate', 1),
                                   ('cudaStreamSynchronize', 1)],
                       'devices': [(82282,
                                    3,
                                    [('d2d', 2404),
                                     ('d2h', 3111),
                                     ('h2d', 2992)],
                                    0)],
                       'contents': [3790717635,
                                    3778451967,
                                    2184014335,
                                    4021661486],
                       'host': 3778451967}}}
EXPECTED_TRACED = {'state': {'clock_ns': 280159506,
           'syscall_count': 59,
           'fs_switch_count': 58,
           'call_counter': [('__cudaRegisterFatBinary', 1),
                            ('__cudaRegisterFunction', 2),
                            ('cudaDeviceSynchronize', 1),
                            ('cudaLaunchKernel', 3),
                            ('cudaMalloc', 2),
                            ('cudaMallocHost', 1),
                            ('cudaMallocManaged', 1),
                            ('cudaMemcpy', 4),
                            ('cudaMemcpyAsync', 4),
                            ('cudaMemset', 1),
                            ('cudaMemsetAsync', 1),
                            ('cudaPopCallConfiguration', 3),
                            ('cudaPushCallConfiguration', 3),
                            ('cudaStreamCreate', 1),
                            ('cudaStreamSynchronize', 1)],
           'api_log': [('__cudaRegisterFatBinary', 1),
                       ('__cudaRegisterFunction', 2),
                       ('cudaDeviceSynchronize', 1),
                       ('cudaLaunchKernel', 3),
                       ('cudaMalloc', 2),
                       ('cudaMallocHost', 1),
                       ('cudaMallocManaged', 1),
                       ('cudaMemcpy', 4),
                       ('cudaMemcpyAsync', 4),
                       ('cudaMemset', 1),
                       ('cudaMemsetAsync', 1),
                       ('cudaStreamCreate', 1),
                       ('cudaStreamSynchronize', 1)],
           'devices': [(82282,
                        3,
                        [('d2d', 2404), ('d2h', 3111), ('h2d', 2992)],
                        0)],
           'contents': [3790717635, 3778451967, 2184014335, 4021661486],
           'host': 3778451967},
 'api': [('cudaMalloc', 280006785, 280008930, 0),
         ('cudaMalloc', 280009300, 280011445, 0),
         ('cudaMallocHost', 280011815, 280013960, 0),
         ('cudaMallocManaged', 280014330, 280016475, 0),
         ('cudaStreamCreate', 280016845, 280018990, 0),
         ('cudaMemcpy', 280019110, 280021255, 0),
         ('cudaMemcpy', 280023006, 280025151, 0),
         ('cudaMemset', 280026856, 280029001, 0),
         ('cudaMemsetAsync', 280030622, 280032767, 0),
         ('cudaPushCallConfiguration', 280032887, 280035032, 0),
         ('cudaPopCallConfiguration', 280035152, 280037297, 0),
         ('cudaLaunchKernel', 280037417, 280039562, 0),
         ('cudaPushCallConfiguration', 280039682, 280041827, 0),
         ('cudaPopCallConfiguration', 280041947, 280044092, 0),
         ('cudaLaunchKernel', 280044212, 280046357, 0),
         ('cudaPushCallConfiguration', 280046477, 280048622, 0),
         ('cudaPopCallConfiguration', 280048742, 280050887, 0),
         ('cudaLaunchKernel', 280051007, 280053152, 0),
         ('cudaMemcpyAsync', 280053272, 280055417, 0),
         ('cudaMemcpyAsync', 280055537, 280057682, 0),
         ('cudaMemcpy', 280057802, 280059947, 0),
         ('cudaMemcpyAsync', 280126681, 280128826, 0),
         ('cudaMemcpyAsync', 280128946, 280131091, 0),
         ('cudaMemcpy', 280131211, 280133356, 0),
         ('cudaStreamSynchronize', 280134976, 280137121, 0),
         ('cudaDeviceSynchronize', 280147241, 280149386, 0)]}
EXPECTED_FAULT_DOMAIN = {'ladder': (1, 1, 62509230, 21877),
 'state': {'clock_ns': 516265000,
           'syscall_count': 29,
           'fs_switch_count': 28,
           'call_counter': [('__cudaRegisterFatBinary', 1),
                            ('__cudaRegisterFunction', 2),
                            ('cudaDeviceSynchronize', 2),
                            ('cudaLaunchKernel', 6),
                            ('cudaMalloc', 2),
                            ('cudaMallocHost', 1),
                            ('cudaMallocManaged', 1),
                            ('cudaMemcpy', 8),
                            ('cudaMemcpyAsync', 8),
                            ('cudaMemset', 2),
                            ('cudaMemsetAsync', 2),
                            ('cudaPopCallConfiguration', 6),
                            ('cudaPushCallConfiguration', 6),
                            ('cudaStreamCreate', 2),
                            ('cudaStreamSynchronize', 2)],
           'api_log': [('__cudaRegisterFatBinary', 1),
                       ('__cudaRegisterFunction', 2),
                       ('cudaDeviceSynchronize', 1),
                       ('cudaLaunchKernel', 3),
                       ('cudaMalloc', 2),
                       ('cudaMallocHost', 1),
                       ('cudaMallocManaged', 1),
                       ('cudaMemcpy', 2),
                       ('cudaMemcpyAsync', 4),
                       ('cudaStreamSynchronize', 1)],
           'devices': [(55000,
                        3,
                        [('d2d', 1280), ('d2h', 2087), ('h2d', 1417)],
                        0)],
           'contents': [3407494734, 3030193140, 3885431743, 4021661486],
           'host': 3030193140}}
EXPECTED_RESTART = {'before': {'clock_ns': 377289861,
            'syscall_count': 59,
            'fs_switch_count': 58,
            'call_counter': [('__cudaRegisterFatBinary', 1),
                             ('__cudaRegisterFunction', 2),
                             ('cudaDeviceSynchronize', 1),
                             ('cudaLaunchKernel', 3),
                             ('cudaMalloc', 2),
                             ('cudaMallocHost', 1),
                             ('cudaMallocManaged', 1),
                             ('cudaMemcpy', 4),
                             ('cudaMemcpyAsync', 4),
                             ('cudaMemset', 1),
                             ('cudaMemsetAsync', 1),
                             ('cudaPopCallConfiguration', 3),
                             ('cudaPushCallConfiguration', 3),
                             ('cudaStreamCreate', 1),
                             ('cudaStreamSynchronize', 1)],
            'api_log': [('__cudaRegisterFatBinary', 1),
                        ('__cudaRegisterFunction', 2),
                        ('cudaDeviceSynchronize', 2),
                        ('cudaLaunchKernel', 3),
                        ('cudaMalloc', 2),
                        ('cudaMallocHost', 1),
                        ('cudaMallocManaged', 1),
                        ('cudaMemcpy', 4),
                        ('cudaMemcpyAsync', 4),
                        ('cudaMemset', 1),
                        ('cudaMemsetAsync', 1),
                        ('cudaStreamCreate', 1),
                        ('cudaStreamSynchronize', 1)],
            'devices': [(82282,
                         3,
                         [('d2d', 2404), ('d2h', 3111), ('h2d', 2992)],
                         0)],
            'contents': [3790717635, 3778451967, 2184014335, 4021661486],
            'host': 3778451967},
 'restart_ns': 76210213,
 'restarted': {'clock_ns': 453613893,
               'syscall_count': 45,
               'fs_switch_count': 44,
               'call_counter': [('__cudaRegisterFatBinary', 1),
                                ('__cudaRegisterFunction', 2),
                                ('cudaDeviceSynchronize', 2),
                                ('cudaLaunchKernel', 6),
                                ('cudaMalloc', 2),
                                ('cudaMallocHost', 1),
                                ('cudaMallocManaged', 1),
                                ('cudaMemcpy', 8),
                                ('cudaMemcpyAsync', 8),
                                ('cudaMemset', 2),
                                ('cudaMemsetAsync', 2),
                                ('cudaPopCallConfiguration', 6),
                                ('cudaPushCallConfiguration', 6),
                                ('cudaStreamCreate', 2),
                                ('cudaStreamSynchronize', 2)],
               'api_log': [('__cudaRegisterFatBinary', 1),
                           ('__cudaRegisterFunction', 2),
                           ('cudaDeviceSynchronize', 1),
                           ('cudaLaunchKernel', 3),
                           ('cudaMalloc', 2),
                           ('cudaMallocHost', 1),
                           ('cudaMallocManaged', 1),
                           ('cudaMemcpy', 4),
                           ('cudaMemcpyAsync', 4),
                           ('cudaMemset', 1),
                           ('cudaMemsetAsync', 1),
                           ('cudaStreamCreate', 1),
                           ('cudaStreamSynchronize', 1)],
               'devices': [(55000,
                            3,
                            [('d2d', 2404), ('d2h', 3111), ('h2d', 2992)],
                            0)],
               'contents': [3407494734, 3030193140, 3885431743, 4021661486],
               'host': 3030193140}}
