"""Self-tests of the benchmark harness: tail rank, self time, output checks.

    python3 -m pytest -q bench/test_bench_harness.py
"""

import json
import math
import random

import numpy as np
import pytest

import checks
import run
import spans


class TestTailIndex:
    @pytest.mark.parametrize("n, index, percentile", [
        (11, 0, 100.0 / 11), (20, 9, 50.0), (30, 19, 100.0 * 20 / 30),
        (40, 29, 75.0), (1000, 989, 99.0)])
    def test_known_counts(self, n, index, percentile):
        got_index, got_pct = run.tail_index(n)
        assert got_index == index
        assert got_pct == pytest.approx(percentile)

    @pytest.mark.parametrize("n", [11, 12, 25, 43, 500])
    def test_exactly_ten_beyond(self, n):
        sample = random.Random(n).sample(range(10 * n), n)
        tail = run.pass_tail(sample)
        assert sum(v > tail for v in sample) == 10

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            run.tail_index(10)


class _Clock:
    """A clock that advances by a scripted step on every read."""

    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


class TestSelfTime:
    def test_nested_spans(self):
        # begin/end reads: A0 B1 C2 C4 B5 D6 D7 A10 (CPU clock fixed at 0)
        tracer = spans.Tracer(clock=_Clock([0, 1, 2, 4, 5, 6, 7, 10]),
                              cpu_clock=lambda: 0.0)
        tracer.begin("A")
        tracer.begin("B")
        tracer.begin("C")
        tracer.end()
        tracer.end()
        tracer.begin("D")
        tracer.end()
        tracer.end()
        assert dict(tracer.self_s) == {"C": 2, "B": 2, "D": 1, "A": 5}
        assert dict(tracer.wall_s) == {"C": 2, "B": 4, "D": 1, "A": 10}

    def test_wrapped_calls_nest(self):
        tracer = spans.Tracer(clock=_Clock([0, 3, 4, 9]), cpu_clock=lambda: 0.0)
        inner = tracer._wrap(lambda x: x + 1, lambda a, k: "inner")
        outer = tracer._wrap(lambda x: inner(x) * 2, lambda a, k: "outer")
        assert outer(1) == 4
        assert tracer.self_s == {"inner": 1, "outer": 8}
        assert tracer.calls == {"inner": 1, "outer": 1}

    def test_merge_adds_totals(self):
        a = spans.Tracer(clock=_Clock([0, 1, 2, 3]), cpu_clock=lambda: 0.0)
        a.begin("x"), a.begin("y"), a.end(), a.end()
        b = spans.Tracer(clock=_Clock([0, 1, 2, 3]), cpu_clock=lambda: 0.0)
        b.begin("x"), b.begin("y"), b.end(), b.end()
        a.merge(b)
        assert a.self_s == {"x": 4, "y": 2}
        assert a.calls == {"x": 2, "y": 2}


def _distance_report(estimate, seminorm, finest=0.5):
    return json.dumps({"limsup_estimate": estimate, "uncertainty": 0.01,
                       "tail_profile": [[1.0, seminorm], [finest, estimate],
                                        [finest / 2, None]]})


class TestChecks:
    def test_good_values_pass(self):
        assert checks.check_distance(0.49, 0.5, 0.1, "bmo_circle/step_half") == []
        assert checks.check_cli(0, 0, '{"value": 1.98}', "bloch/log_singular") == []
        assert checks.check_cli(0, 0, _distance_report(0.4, 0.5), "bmo_circle/step_half") == []

    def test_planted_wrong_value(self):
        assert checks.check_distance(0.49, 0.6, 0.1, "bmo_circle/step_half")
        assert checks.check_distance(0.7, 0.6, 0.1)               # estimate > seminorm
        assert checks.check_cli(0, 0, '{"value": 2.5}', "bloch/log_singular")
        assert checks.check_cli(0, 0, "not json")
        assert checks.check_cli(0, 0, _distance_report(0.6, 0.5))   # estimate > seminorm
        assert checks.check_cli(0, 0, _distance_report(0.4, 0.65), "bmo_circle/step_half")
        assert checks.check_cli(0, 0, '{"relative_deviation": 0.03}',
                                expect={"relative_deviation": (0.0, 0.02)})

    def test_planted_wrong_exit_code(self):
        assert checks.check_cli(0, 4, '{"value": 1.98}')
        assert checks.check_cli(2, 0, '{"value": 1.98}')
        assert checks.check_cli(2, 2, None) == []


class TestAnalyticBounds:
    """The references and bounds a generated input is held to: met by the
    exact values of known functions, broken by planted wrong ones."""

    NODES = np.array([0.0, 0.5j, -0.9])

    def test_taylor_reference_exact(self):
        rem = 1.0 - np.abs(self.NODES)
        # z^2 on bloch: (1 - r^2) 2r
        ref = checks.taylor_reference("bloch", [0, 1], self.NODES, rem, 0.1)
        assert ref.seminorm == pytest.approx(0.75)
        assert ref.estimate == pytest.approx(0.19 * 1.8)
        # z on qk: sqrt(pi/2 (1 - |a|^2))
        ref = checks.taylor_reference("qk", [1.0], self.NODES, rem, 0.1)
        assert ref.seminorm == pytest.approx(math.sqrt(math.pi / 2))
        assert ref.estimate == pytest.approx(math.sqrt(math.pi / 2 * 0.19))
        # 1 + z^2 (constant dropped) on weighted: (1 - r^2) r^2
        ref = checks.taylor_reference("weighted", [0, 1], self.NODES, rem, 0.6)
        assert ref.seminorm == pytest.approx(0.75 * 0.25)

    def test_planted_value_off_reference(self):
        rem = 1.0 - np.abs(self.NODES)
        ref = checks.taylor_reference("qk", [1.0, 0.5], self.NODES, rem, 0.1)
        good = checks.check_distance(ref.estimate * 1.09, ref.seminorm, 0.1, reference=ref)
        assert good == []
        assert checks.check_distance(ref.estimate, ref.seminorm * 1.001, 0.1, reference=ref)
        assert checks.check_distance(ref.estimate * 1.12, ref.seminorm, 0.1, reference=ref)
        ref = checks.taylor_reference("bloch", [1.0, 0.5], self.NODES, rem, 0.1)
        assert checks.check_distance(ref.estimate * (1 + 1e-6), ref.seminorm, 0.1,
                                     reference=ref)

    def test_bloch_monomial(self):
        # z^3: (1-r^2) 3 r^2 peaks at 4/(3 sqrt 3) = 0.770; at 1-|w| = t it is
        # 3 (2t - t^2)(1-t)^2
        b = checks.taylor_bounds("bloch", [0, 0, 1])
        t = 2.0 ** -12
        exact_tail = 3 * (2 * t - t * t) * (1 - t) ** 2
        assert checks.check_distance(exact_tail, 4 / 3 ** 1.5, t, bounds=b) == []
        assert checks.check_distance(exact_tail, 3.1, t, bounds=b)        # seminorm
        assert checks.check_distance(0.05, 0.77, t, bounds=b)             # tail

    def test_weighted_constant_counts(self):
        b = checks.taylor_bounds("weighted", [1.0], const=1.0)
        assert b.seminorm_cap == 2.0
        assert checks.check_norm(2.5, bounds=b)

    def test_qk_slack(self):
        # f(z) = z: the local value is exactly sqrt(pi/2 (1-|a|^2))
        b = checks.taylor_bounds("qk", [1.0])
        t = 2.0 ** -7
        exact = math.sqrt(math.pi / 2 * (2 * t - t * t))
        assert checks.check_distance(1.064 * exact, math.sqrt(math.pi / 2), t,
                                     bounds=b) == []
        assert checks.check_distance(1.2 * exact, math.sqrt(math.pi / 2), t, bounds=b)

    def test_trig_and_torus(self):
        # cos(4 theta): deviation at most 1, Lipschitz 4
        g = checks.trig_bounds([4, -4], [0.5, 0.5])
        assert (g.seminorm_cap, g.tail_cap(0.1)) == (1.0, pytest.approx(0.2))
        assert checks.check_distance(0.21, 0.7, 0.1, bounds=g)
        prod = checks.torus_bounds([(g, g), (g, checks.circle_bounds(2.0, 1.0))])
        assert prod.seminorm_cap == 3.0
        # per product, the shorter side's factor takes its Lipschitz bound
        assert prod.tail_cap(0.1) == pytest.approx(0.2 * 1.0 + max(0.2 * 2.0, 1.0 * 0.05))

    def test_holder_cusp_floor(self):
        b = checks.holder_bounds(1.5, 0.5, 0.5, 2.0)
        assert checks.check_distance(0.3, 1.5, 1e-5, bounds=b, floor=1.485) == []
        assert checks.check_distance(0.3, 1.2, 1e-5, bounds=b, floor=1.485)
        assert checks.check_distance(0.3, 1.6, 1e-5, bounds=b, floor=1.485)
        assert checks.check_distance(1.6, 1.6, 1e-5, bounds=b)

    def test_cli_bounds(self):
        b = checks.taylor_bounds("bloch", [0, 1])                      # z^2: cap 2
        assert checks.check_cli(0, 0, '{"value": 0.77}', bounds=b) == []
        assert checks.check_cli(0, 0, '{"value": 2.2}', bounds=b)
        assert checks.check_cli(0, 0, _distance_report(0.01, 0.77, 2.0 ** -12), bounds=b)
