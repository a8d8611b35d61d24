"""Per-rule fixtures: one positive, one negative, one suppressed each.

Fixture trees are laid out like the real package
(``src/repro/<subpackage>/...``) so the rules' path-fragment scoping is
exercised too, not just their AST matching.
"""


def _rules(result):
    return sorted(f.rule_id for f in result.reported)


class TestW001UnseededRandom:
    def test_global_random_draw_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/workloads/gen.py": """\
                import random

                def shuffle_pairs(pairs):
                    random.shuffle(pairs)
                """
            }
        )
        assert _rules(result) == ["W001"]
        assert "global `random` state" in result.reported[0].message

    def test_unseeded_constructors_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/workloads/gen.py": """\
                import random
                import numpy as np

                rng = random.Random()
                nrng = np.random.default_rng()
                """
            }
        )
        assert _rules(result) == ["W001", "W001"]

    def test_from_import_draw_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/workloads/gen.py": """\
                from random import randint

                def roll():
                    return randint(1, 6)
                """
            }
        )
        assert _rules(result) == ["W001"]

    def test_seeded_generators_pass(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/workloads/gen.py": """\
                import random
                import numpy as np
                from numpy.random import default_rng

                rng = random.Random(42)
                nrng = np.random.default_rng(seed=7)
                other = default_rng(0)
                """
            }
        )
        assert result.reported == []

    def test_out_of_scope_tree_ignored(self, lint_tree):
        result = lint_tree(
            {
                "scripts/gen.py": """\
                import random
                random.seed(0)
                """
            }
        )
        assert result.reported == []

    def test_suppressed_inline(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/workloads/gen.py": """\
                import random

                random.shuffle([])  # wfalint: disable=W001 — test shim
                """
            }
        )
        assert result.reported == []
        assert _rules_of(result.suppressed) == ["W001"]


class TestW002FloatCycleArithmetic:
    def test_true_division_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/wfasic/timing.py": """\
                def per_pair(total_cycles, n):
                    return total_cycles / n
                """
            }
        )
        assert _rules(result) == ["W002"]

    def test_float_cast_and_literal_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/soc/timing.py": """\
                class Model:
                    def reset(self):
                        self.cycles = 0.0
                        return float(self.cycles)
                """
            }
        )
        assert _rules(result) == ["W002", "W002"]

    def test_floor_division_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/wfasic/timing.py": """\
                def per_pair(total_cycles, n):
                    return total_cycles // max(n, 1)
                """
            }
        )
        assert result.reported == []

    def test_declared_float_rate_exempt(self, lint_tree):
        # An explicit `: float` annotation declares a *rate* (e.g. the
        # CpuTimings calibration constants), which is sanctioned.
        result = lint_tree(
            {
                "src/repro/soc/timings.py": """\
                class CpuTimings:
                    cell_cycles: float = 26.0
                """
            }
        )
        assert result.reported == []

    def test_out_of_scope_ratio_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/metrics/gcups.py": """\
                def gcups(cells, total_cycles, hz):
                    return cells / (total_cycles / hz) / 1e9
                """
            }
        )
        assert result.reported == []

    def test_suppression_on_preceding_comment_line(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/wfasic/timing.py": """\
                def rate(txns, align_cycles):
                    # wfalint: disable=W002 — a rate, not a counter
                    return txns / align_cycles
                """
            }
        )
        assert result.reported == []
        assert _rules_of(result.suppressed) == ["W002"]


class TestW003BlanketExcept:
    def test_bare_except_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/worker.py": """\
                def run(chunk):
                    try:
                        return chunk()
                    except:
                        return None
                """
            }
        )
        assert _rules(result) == ["W003"]

    def test_base_exception_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/worker.py": """\
                def run(chunk):
                    try:
                        return chunk()
                    except BaseException:
                        return None
                """
            }
        )
        assert _rules(result) == ["W003"]

    def test_exception_blanket_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/worker.py": """\
                def run(chunk):
                    try:
                        return chunk()
                    except Exception:
                        return None
                """
            }
        )
        assert result.reported == []

    def test_reraising_handler_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/worker.py": """\
                def run(chunk, log):
                    try:
                        return chunk()
                    except:
                        log("dying")
                        raise
                """
            }
        )
        assert result.reported == []

    def test_out_of_scope_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/wfasic/dbg.py": """\
                def peek(fn):
                    try:
                        return fn()
                    except:
                        return None
                """
            }
        )
        assert result.reported == []


class TestW004MutableDefault:
    def test_display_defaults_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/helpers.py": """\
                def collect(pairs, acc=[]):
                    acc.extend(pairs)
                    return acc

                def index(rows, by={}):
                    return by
                """
            }
        )
        assert _rules(result) == ["W004", "W004"]

    def test_factory_and_kwonly_defaults_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/helpers.py": """\
                def collect(pairs, acc=list(), *, seen=set()):
                    return acc, seen
                """
            }
        )
        assert _rules(result) == ["W004", "W004"]

    def test_none_and_immutable_defaults_pass(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/helpers.py": """\
                def collect(pairs, acc=None, limit=16, shape=(2, 2)):
                    return acc or list(pairs)
                """
            }
        )
        assert result.reported == []


class TestW005PickleBoundary:
    def test_lambda_class_default_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/config.py": """\
                class EngineConfig:
                    transform = lambda self, x: x
                """
            }
        )
        assert _rules(result) == ["W005"]

    def test_field_default_lambda_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/config.py": """\
                from dataclasses import dataclass, field

                @dataclass
                class EngineConfig:
                    probe: object = field(default=lambda: None)
                """
            }
        )
        assert _rules(result) == ["W005"]

    def test_self_assignment_in_backend_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/align/backends.py": """\
                class ScalarBackend:
                    def __init__(self):
                        def kernel(p, t):
                            return 0

                        self.kernel = kernel
                        self.log = open("/tmp/x", "w")
                """
            }
        )
        assert _rules(result) == ["W005", "W005"]

    def test_default_factory_passes(self, lint_tree):
        # field(default_factory=lambda: ...) runs in-process; only its
        # (picklable) result lands on the instance.
        result = lint_tree(
            {
                "src/repro/engine/config.py": """\
                from dataclasses import dataclass, field

                @dataclass
                class EngineConfig:
                    stages: list = field(default_factory=lambda: ["extend"])
                """
            }
        )
        assert result.reported == []

    def test_non_boundary_class_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/helpers.py": """\
                class LocalHelper:
                    key = lambda self, x: x
                """
            }
        )
        assert result.reported == []


class TestW005DescriptorContract:
    """The buffer half of W005: no live buffers at the boundary."""

    def test_buffer_in_payload_alias_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/protocol.py": """\
                ShmChunkPayload = tuple[str, SharedMemory, list[int]]
                """
            }
        )
        assert _rules(result) == ["W005"]
        assert "pickle by value" in result.reported[0].message

    def test_memoryview_in_item_alias_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/protocol.py": """\
                ShmItem = tuple[int, memoryview, int]
                """
            }
        )
        assert _rules(result) == ["W005"]

    def test_buffer_annotation_on_boundary_class_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/config.py": """\
                import numpy as np
                from dataclasses import dataclass

                @dataclass
                class EngineConfig:
                    packed: np.ndarray | None = None
                """
            }
        )
        assert _rules(result) == ["W005"]
        assert "annotated with the live buffer type" in (
            result.reported[0].message
        )

    def test_shm_segment_stored_on_backend_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/align/backends.py": """\
                class ArenaBackend:
                    def __init__(self, name):
                        self.segment = SharedMemory(name=name)
                """
            }
        )
        assert _rules(result) == ["W005"]
        assert "live `SharedMemory` buffer" in result.reported[0].message

    def test_descriptor_alias_passes(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/protocol.py": """\
                ShmItem = tuple[int, tuple[str, int, int], int, int]
                ShmChunkPayload = tuple[str, bool, str, list[ShmItem]]
                """
            }
        )
        assert result.reported == []

    def test_alias_outside_boundary_paths_passes(self, lint_tree):
        # Same alias in a non-boundary package: out of W005's scope.
        result = lint_tree(
            {
                "src/repro/obs/protocol.py": """\
                TracePayload = tuple[str, memoryview]
                """
            }
        )
        assert result.reported == []

    def test_suppressed_with_justification(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/protocol.py": """\
                DebugPayload = tuple[str, memoryview]  # wfalint: disable=W005 — in-process debug channel, never dispatched
                """
            }
        )
        assert result.reported == []
        assert _rules_of(result.suppressed) == ["W005"]


class TestW006MetricVocabulary:
    def test_typo_name_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/obs_use.py": """\
                def publish(reg):
                    reg.counter("engine_pair_total", "typo'd").inc()
                """
            },
            with_vocabulary=True,
        )
        assert _rules(result) == ["W006"]
        assert "not in the declared vocabulary" in result.reported[0].message

    def test_unknown_label_key_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/obs_use.py": """\
                def publish(reg, n):
                    c = reg.counter("engine_pairs_total", "h")
                    c.inc(n, {"backend": "scalar", "speed": "fast"})
                """
            },
            with_vocabulary=True,
        )
        assert _rules(result) == ["W006"]
        assert "`speed`" in result.reported[0].message

    def test_opaque_name_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/obs_use.py": """\
                def publish(reg, name_from_config):
                    reg.counter(name_from_config, "h").inc()
                """
            },
            with_vocabulary=True,
        )
        assert _rules(result) == ["W006"]
        assert "cannot be verified" in result.reported[0].message

    def test_literal_and_dynamic_patterns_pass(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/obs_use.py": """\
                def publish(reg, prefix, n):
                    reg.counter("engine_pairs_total", "h").inc(n)
                    reg.histogram(f"{prefix}_stage_seconds_total", "h")
                    for name, amount in (
                        ("engine_pairs_total", 1),
                        ("engine_stage_seconds_total", 2),
                    ):
                        reg.counter(name, "h").inc(amount)
                    labels = {"backend": "scalar"}
                    reg.counter("engine_pairs_total", "h").inc(n, labels)
                """
            },
            with_vocabulary=True,
        )
        assert result.reported == []

    def test_unmatched_fstring_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/obs_use.py": """\
                def publish(reg, prefix):
                    reg.counter(f"{prefix}_bogus_suffix", "h")
                """
            },
            with_vocabulary=True,
        )
        assert _rules(result) == ["W006"]

    def test_missing_vocabulary_is_itself_a_finding(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/engine/obs_use.py": """\
                def publish(reg):
                    reg.counter("engine_pairs_total", "h")
                """
            }
        )
        assert _rules(result) == ["W006"]
        assert "no metric vocabulary" in result.reported[0].message


class TestW007WallClockInModel:
    def test_attribute_read_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/soc/model.py": """\
                import time

                def stamp():
                    return time.perf_counter()
                """
            }
        )
        assert _rules(result) == ["W007"]

    def test_from_import_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/wfasic/model.py": """\
                from time import monotonic
                """
            }
        )
        assert _rules(result) == ["W007"]

    def test_engine_layer_may_read_clock(self, lint_tree):
        # Wall-clock profiling belongs to the engine/observability
        # layers; W007 only guards the cycle-accurate models.
        result = lint_tree(
            {
                "src/repro/engine/profile.py": """\
                import time

                def stamp():
                    return time.perf_counter()
                """
            }
        )
        assert result.reported == []

    def test_sleep_is_not_a_clock_read(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/soc/model.py": """\
                import time

                def nap():
                    time.sleep(0.1)
                """
            }
        )
        assert result.reported == []


class TestW008PrintInLibrary:
    def test_print_flagged_as_warning(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/wfasic/dbg.py": """\
                def dump(state):
                    print(state)
                """
            }
        )
        assert _rules(result) == ["W008"]
        assert result.reported[0].severity == "warning"
        # Warnings still fail the run — CI must not accrue them.
        assert result.exit_code == 1

    def test_cli_module_exempt(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/cli.py": """\
                def main():
                    print("summary")
                """
            }
        )
        assert result.reported == []


def _rules_of(findings):
    return sorted(f.rule_id for f in findings)


class TestServeTreeInScope:
    """ISSUE 8: the serving layer is inside the lint gate, not beside it.

    W006's scope is the ``repro/`` path fragment, so ``repro/serve/``
    joined the closed-metrics-vocabulary check the moment it was
    created — these tests pin that (a scope regression to, say,
    ``repro/engine/`` would silently unlint the service), and that the
    real ``serve_*`` vocabulary rows pass clean.
    """

    SERVE_VOCABULARY = """\
    METRIC_NAMES = frozenset({
        "serve_requests_total",
        "serve_request_latency_seconds",
    })
    LABEL_KEYS = frozenset({"kind"})
    """

    def test_undeclared_metric_in_serve_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/serve/scheduler.py": """\
                def publish(reg):
                    reg.counter("serve_bogus_total", "undeclared").inc()
                """
            },
            with_vocabulary=True,
        )
        assert _rules(result) == ["W006"]

    def test_declared_serve_metrics_pass(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/obs/vocabulary.py": self.SERVE_VOCABULARY,
                "src/repro/serve/scheduler.py": """\
                def publish(reg, n):
                    c = reg.counter("serve_requests_total", "by kind")
                    c.inc(n, {"kind": "align"})
                    reg.histogram(
                        "serve_request_latency_seconds", "latency"
                    ).observe(0.01)
                """,
            },
        )
        assert _rules(result) == []

    def test_unknown_label_key_in_serve_flagged(self, lint_tree):
        result = lint_tree(
            {
                "src/repro/obs/vocabulary.py": self.SERVE_VOCABULARY,
                "src/repro/serve/server.py": """\
                def publish(reg):
                    c = reg.counter("serve_requests_total", "by kind")
                    c.inc(1, {"client": "cli"})
                """,
            },
        )
        assert _rules(result) == ["W006"]

    def test_print_in_serve_flagged(self, lint_tree):
        # W008: the server never prints — stdout belongs to the CLI.
        result = lint_tree(
            {
                "src/repro/serve/server.py": """\
                def handle(doc):
                    print("got", doc)
                """
            },
        )
        assert _rules(result) == ["W008"]
