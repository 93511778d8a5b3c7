"""Random orientation documents against the CLI exit-code contract.

Every run of ``grading``, ``nondeg`` and ``rigidity`` ends with one JSON
document and exit code 0 (ok), 2 (usage), 3 (domain) or 4 (theorem
violation); an error document names its ``reason`` as a lowercase slug.
A traceback would surface here as an exception out of ``main``.
"""

import contextlib
import io
import json
import re
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from cmhodge.cli import main

CONDUCTORS = (3, 4, 5, 7, 8, 9, 12, 13)
REASON = re.compile(r"^[a-z-]+$")

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 7),
    st.text(max_size=3),
    st.lists(st.integers(-1, 6), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
DAMAGES = (
    "drop-label", "extra-label", "bad-pair", "swap-pair", "bad-weight",
    "drop-weight", "bad-assignment", "not-an-object", "truncated",
)


@st.composite
def orientation_runs(draw):
    """An argv for one command: a well-formed orientation at a random conductor, then up to two damages."""
    command = draw(st.sampled_from(("grading", "nondeg", "rigidity")))
    m = draw(st.sampled_from(CONDUCTORS))
    weight = draw(st.sampled_from((1, 3, 5)))
    assignment = {}
    for lab in range(1, m):
        if gcd(lab, m) == 1 and lab < m - lab:
            t = draw(st.integers(0, weight))
            assignment[str(lab)] = [weight - t, t]
            assignment[str(m - lab)] = [t, weight - t]
    doc = {"weight": weight, "assignment": assignment}
    truncated = False
    for damage in draw(st.lists(st.sampled_from(DAMAGES), max_size=2)):
        assignment = doc.get("assignment") if isinstance(doc, dict) else None
        keys = sorted(assignment) if isinstance(assignment, dict) else []
        if damage == "drop-label" and keys:
            del assignment[draw(st.sampled_from(keys))]
        elif damage == "extra-label" and keys:
            assignment[draw(st.text(max_size=3) | st.integers(0, 2 * m).map(str))] = [weight, 0]
        elif damage == "bad-pair" and keys:
            assignment[draw(st.sampled_from(keys))] = draw(JUNK)
        elif damage == "swap-pair" and keys:
            key = draw(st.sampled_from(keys))
            if isinstance(assignment[key], list):
                assignment[key] = assignment[key][::-1]
        elif damage == "bad-weight" and isinstance(doc, dict):
            doc["weight"] = draw(JUNK)
        elif damage == "drop-weight" and isinstance(doc, dict):
            doc.pop("weight", None)
        elif damage == "bad-assignment" and isinstance(doc, dict):
            doc["assignment"] = draw(JUNK)
        elif damage == "not-an-object":
            doc = draw(JUNK)
        elif damage == "truncated":
            truncated = True
    text = json.dumps(doc)
    if truncated:
        text = text[: draw(st.integers(0, max(0, len(text) - 1)))]
    argv = [command, "--conductor", str(m), f"--orientation={text}"]
    flag = draw(st.sampled_from((None, 1, 2, 3, 5)))
    if flag is not None:
        argv += ["--weight", str(flag)]
    return argv


@settings(max_examples=200, deadline=None)
@given(orientation_runs())
def test_orientation_commands_keep_the_exit_code_contract(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    doc = json.loads(out.getvalue())
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert doc["command"] == argv[0]
    else:
        assert REASON.match(doc["error"]["reason"]), doc
