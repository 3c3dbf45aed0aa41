"""The verdict corpus: sixteen fields, each with its Osgood kind and the
verdict that the default sweep gives it.

The kind rests on Osgood's test: u' = B(u) blows up from x with B > 0 on
[x, oo) exactly when int_x^oo du / B(u) converges.  A field that stays
non-positive, or that has a zero above every state it starts from, is
global.  ``test_scoreboard.py`` checks each verdict against its kind, and
``corpus_artifacts.py`` writes each field's default-sweep artifacts.
"""

BLOWUP = "blow-up"
GLOBAL_FLOW = "global"

# field -> (kind, default-sweep verdict)
TABLE = {
    "x^2": (BLOWUP, "Local"),
    "x*(x-1)": (BLOWUP, "Local"),
    "x^3": (BLOWUP, "Local"),
    "x^1.5": (BLOWUP, "Local"),
    "x*ln(1+x)^2": (BLOWUP, "Local"),
    "(1+x)*ln(1+x)^2": (BLOWUP, "Local"),
    "x*ln(1+x)^1.2": (BLOWUP, "Local"),
    "exp(x)": (BLOWUP, "Inconclusive"),
    "-x^2": (GLOBAL_FLOW, "Global"),
    "-x": (GLOBAL_FLOW, "Global"),
    "0": (GLOBAL_FLOW, "Global"),
    "sin(x)": (GLOBAL_FLOW, "Inconclusive"),
    # int du / (u ln^q u) diverges for q <= 1
    "x": (GLOBAL_FLOW, "Local"),
    "1+x": (GLOBAL_FLOW, "Local"),
    "x*ln(1+x)": (GLOBAL_FLOW, "Local"),
    "x*ln(1+x)^0.8": (GLOBAL_FLOW, "Local"),
}

# The wrong verdicts the sweep is known to give.  On [0, z] the top
# boundary acts as an exit, so a field with v > 0 up to z certifies Local
# whether or not its Osgood integral converges.  A field leaves this list
# when its verdict becomes right, so the list can only shrink.
KNOWN_WRONG = {"x", "1+x", "x*ln(1+x)", "x*ln(1+x)^0.8"}
