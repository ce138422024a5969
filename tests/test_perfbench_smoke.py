"""The benchmark's view of the library, on each workload's warmup items.

perfbench/ drives logzono through the package namespace and traces it by
replacing module attributes. A renamed function, or an evaluator that binds
zonotope functions at import, would break or blind it; this runs its own
workloads and tracer (imported, not modified) to catch that.
"""

import os

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def test_warmup_items_pass_under_tracer(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracing
    import workloads

    tracers = {}
    for name, workload in workloads.WORKLOADS.items():
        w = workload(1, small=True)
        tracer = tracers[name] = tracing.Tracer()
        with tracer.install():
            for i, item in enumerate(w.warmup_items()):
                tracer.begin_op(i)
                result = w.run(item)
                tracer.end_op()
                assert w.check(item, result) is None, name
    calls = {fn: stat[0] for fn, stat in tracers["intersection-long"].stats.items()}
    assert calls["zonotope.mink_or"] > 0 and calls["zonotope.mink_and"] > 0
