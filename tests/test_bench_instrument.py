"""The traced benchmark (`bench/run.py --trace 1`) wraps functions by the
names the calling modules look them up by, so a rename in banglab breaks
it without failing any other test.  This installs every wrapper once."""

from pathlib import Path

from banglab import cbnv, reduction

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_instrumentation_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import instrument
    import spans

    before = (cbnv.shift_free, reduction.redexes)
    tracer = spans.Tracer()
    try:
        instrument.Instrumentation(tracer)
        assert cbnv.shift_free is not before[0] and reduction.redexes is not before[1]
    finally:
        tracer.restore()
    assert (cbnv.shift_free, reduction.redexes) == before
