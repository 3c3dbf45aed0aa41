"""Verdict scoreboard: the default sweep on every corpus field.

Each verdict must be right for the field's Osgood kind, or Inconclusive,
except the known wrong verdicts of ``corpus.KNOWN_WRONG``; and it must be
the verdict that ``corpus.TABLE`` records, so any change of a verdict, a
fix included, shows here.
"""

import pytest

import corpus
from blowup.classify import GLOBAL, INCONCLUSIVE, LOCAL, classify_sweep
from blowup.expr import parse

RIGHT = {corpus.BLOWUP: LOCAL, corpus.GLOBAL_FLOW: GLOBAL}


@pytest.mark.parametrize("text", list(corpus.TABLE))
def test_default_sweep_verdict(text):
    kind, verdict = corpus.TABLE[text]
    if text in corpus.KNOWN_WRONG:
        assert verdict not in (RIGHT[kind], INCONCLUSIVE)
    else:
        assert verdict in (RIGHT[kind], INCONCLUSIVE)
    assert classify_sweep(parse(text)).verdict == verdict
