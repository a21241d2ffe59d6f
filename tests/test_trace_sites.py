"""The benchmark's tracer (perfbench/tracing.py) wraps copesim functions by
module attribute name; a rename or deletion of any of them breaks
``perfbench/run.py --trace 1``, so it must fail here first."""

import os

import copesim
# the tracer also wraps functions of these submodules, which the package
# does not import itself
import copesim.cli  # noqa: F401
import copesim.verify  # noqa: F401

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_perfbench_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(os.path.abspath(PERFBENCH))
    import tracing

    def bound():
        return [getattr(getattr(copesim, mod), attr)
                for mod, attr in tracing.FUNCTION_SITES]

    before = bound()
    tracer = tracing.Tracer()
    with tracer.installed(copesim):
        copesim.mechanism.quadratic_components_batch(
            [[0.3, 0.6, 0.9]], 0.0, 1.0, 1.0)
    assert tracer.calls["mechanism.quadratic_pi_tail_gl"] == 1
    assert all(a is b for a, b in zip(bound(), before))
