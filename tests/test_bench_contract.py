from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_workload_runs_clean_plain_and_traced(monkeypatch):
    # The benchmark reaches the library by name: module attributes, positional
    # signatures, and each stream class's own ``_extend``, which the tracer
    # wraps.  One plain round and one traced round of every workload catch a
    # name the library drops or moves before a benchmark run does.
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import run
    from workloads import WORKLOADS

    lib = run.load_library(BENCH.parent)
    for name, workload in sorted(WORKLOADS.items()):
        corpus = workload.corpus(11)
        ops = workload.operations(lib, corpus, workload.setup(lib, corpus))
        first = run.Round(ops)
        tracer = layers.Tracer(lib)
        tracer.install()
        try:
            traced = run.Round(ops, first, tracer)
        finally:
            tracer.uninstall()
        attempted, failed, problems = run.check_rounds(ops, first, [traced])
        assert (attempted, failed, problems) == (2 * len(ops), 0, []), name
        assert tracer.counts["cli.main.calls"] > 0, name
