"""The determinism-lint pass of ``repro.analysis``: positives,
negatives, suppression, scoping."""

import textwrap

from repro.analysis import analyze_sources
from repro.analysis.findings import format_findings


def lint_src(source, rel="repro/cuda/api.py"):
    """Analyse ``source`` as if it lived at repo-relative path ``rel``."""
    return analyze_sources({rel: textwrap.dedent(source)})


def rules(findings):
    return [f.rule for f in findings]


class TestNondeterminism:
    def test_global_random_flagged(self):
        out = lint_src("""\
            import random
            x = random.random()
            """)
        assert rules(out) == ["lint/nondeterminism"]
        assert out[0].line == 2

    def test_wall_clock_flagged(self):
        out = lint_src("""\
            import time
            t = time.perf_counter()
            """)
        assert rules(out) == ["lint/nondeterminism"]

    def test_datetime_now_flagged(self):
        out = lint_src("""\
            import datetime
            t = datetime.datetime.now()
            """)
        assert rules(out) == ["lint/nondeterminism"]

    def test_legacy_np_random_flagged(self):
        out = lint_src("""\
            import numpy as np
            x = np.random.rand(4)
            """)
        assert rules(out) == ["lint/nondeterminism"]

    def test_seeded_streams_allowed(self):
        out = lint_src("""\
            import random
            import numpy as np
            rng = random.Random(7)
            x = rng.random()
            g = np.random.default_rng(7)
            y = g.standard_normal(4)
            """)
        assert out == []

    def test_suppression_marker(self):
        out = lint_src("""\
            import time
            t = time.time()  # lint: allow
            """)
        assert out == []


class TestRawRaise:
    def test_raw_raise_in_cuda_path_flagged(self):
        out = lint_src("""\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
            """)
        assert rules(out) == ["lint/raw-raise"]

    def test_raw_raise_outside_cuda_path_ignored(self):
        out = lint_src("""\
            def f(x):
                if x < 0:
                    raise ValueError("negative")
            """, rel="repro/harness/runner.py")
        assert out == []

    def test_taxonomy_raise_allowed(self):
        out = lint_src("""\
            from repro.cuda.errors import CudaErrorCode, cuda_error

            def f(x):
                if x < 0:
                    raise cuda_error(CudaErrorCode.INVALID_VALUE, "neg")
            """)
        assert out == []

    def test_bare_reraise_allowed(self):
        out = lint_src("""\
            def f(x):
                try:
                    return x()
                except Exception:
                    raise
            """)
        assert out == []


class TestDictIteration:
    def test_items_iter_in_capture_fn_flagged(self):
        out = lint_src("""\
            def capture_buffers(bufs):
                out = []
                for k, v in bufs.items():
                    out.append((k, v))
                return out
            """, rel="repro/dmtcp/image.py")
        assert rules(out) == ["lint/dict-iteration"]

    def test_sorted_items_allowed(self):
        out = lint_src("""\
            def capture_buffers(bufs):
                return [kv for kv in sorted(bufs.items())]
            """, rel="repro/dmtcp/image.py")
        assert out == []

    def test_non_capture_fn_ignored(self):
        out = lint_src("""\
            def lookup(bufs):
                for k, v in bufs.items():
                    pass
            """, rel="repro/dmtcp/image.py")
        assert out == []

    def test_non_capture_module_ignored(self):
        out = lint_src("""\
            def capture_all(bufs):
                for k in bufs.keys():
                    pass
            """, rel="repro/harness/runner.py")
        assert out == []


class TestAliasedImports:
    """Regression: the old literal matcher missed import aliasing."""

    def test_from_time_import_time_flagged(self):
        out = lint_src("""\
            from time import time
            t = time()
            """)
        assert rules(out) == ["lint/nondeterminism"]
        assert "time.time" in out[0].message
        assert "written 'time'" in out[0].message

    def test_from_time_import_perf_counter_aliased(self):
        out = lint_src("""\
            from time import perf_counter as clock
            t = clock()
            """)
        assert rules(out) == ["lint/nondeterminism"]
        assert "time.perf_counter" in out[0].message

    def test_numpy_random_module_alias_flagged(self):
        out = lint_src("""\
            import numpy.random as npr
            x = npr.rand(4)
            """)
        assert rules(out) == ["lint/nondeterminism"]
        assert "numpy.random.rand" in out[0].message

    def test_from_random_import_randint_flagged(self):
        out = lint_src("""\
            from random import randint
            n = randint(0, 9)
            """)
        assert rules(out) == ["lint/nondeterminism"]

    def test_aliased_call_respects_suppression(self):
        out = lint_src("""\
            from time import perf_counter as clock
            t = clock()  # lint: allow
            """)
        assert out == []

    def test_unrelated_alias_not_flagged(self):
        out = lint_src("""\
            from os.path import join as time
            p = time("a", "b")
            """)
        assert out == []


class TestRestoreFunctions:
    """Regression: restore/load paths get the same ordering rules."""

    def test_restore_fn_dict_iteration_flagged(self):
        out = lint_src("""\
            def restore_buffers(bufs):
                for k, v in bufs.items():
                    pass
            """, rel="repro/dmtcp/image.py")
        assert rules(out) == ["lint/dict-iteration"]

    def test_import_generation_fn_flagged(self):
        out = lint_src("""\
            def import_generation(record):
                return {k: v for k, v in record.items()}
            """, rel="repro/dmtcp/store.py")
        assert rules(out) == ["lint/dict-iteration"]

    def test_restore_sorted_iteration_clean(self):
        out = lint_src("""\
            def rehydrate(bufs):
                return [kv for kv in sorted(bufs.items())]
            """, rel="repro/dmtcp/image.py")
        assert out == []


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        out = lint_src("def f(:\n")
        assert rules(out) == ["lint/syntax"]

    def test_format_findings(self):
        out = lint_src("""\
            import time
            t = time.time()
            """)
        text = format_findings(out)
        assert "repro/cuda/api.py:2" in text
        assert "[lint/nondeterminism/" in text
        assert format_findings([]) == "analyze: clean"


class TestScope:
    """The deliberate-violation libraries are linted, but the wiring and
    taint passes leave them out."""

    SOURCE = """\
        import time

        def f(rt):
            rt.launch("k", time.time())
        """

    def test_planted_libraries_are_linted_only(self):
        for rel in ("repro/sanitizer/planted.py", "repro/analysis/corpus.py"):
            out = lint_src(self.SOURCE, rel=rel)
            assert rules(out) == ["lint/nondeterminism"], rel

    def test_other_modules_get_every_pass(self):
        out = lint_src(self.SOURCE, rel="repro/apps/probe.py")
        assert rules(out) == ["det/nondet-into-kernel", "lint/nondeterminism"]

    def test_syntax_error_hides_the_file_from_every_pass(self):
        out = analyze_sources({
            "repro/cuda/api.py": "def f(:\n",
            "repro/apps/ok.py": "import time\nt = time.time()\n",
        })
        assert [(f.rule, f.path) for f in out] == [
            ("lint/nondeterminism", "repro/apps/ok.py"),
            ("lint/syntax", "repro/cuda/api.py"),
        ]
