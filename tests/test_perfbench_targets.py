"""The benchmark's span tracer resolves every name it wraps.

`perfbench/tracing.py` replaces each `(owner, attribute)` of its `TARGETS`
table and reads `Basis.analysis` for its byte counts, so deleting or renaming
one of these breaks every traced benchmark run.  This test fails first.
"""

from pathlib import Path

import pytest

from crflow.spectral import Basis

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    mp.undo()


def test_traced_names_resolve(tracing):
    sites = [(name, owner, attr) for name, pairs in tracing.TARGETS
             for owner, attr in pairs]
    missing = [f"{name}: {owner.__name__}.{attr}" for name, owner, attr in sites
               if attr not in vars(owner)]
    assert sites and not missing, missing
    assert "analysis" in vars(Basis)
