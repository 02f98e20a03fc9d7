"""Fuzz property: any JSON document gives a clean exit, never a traceback."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

from hypothesis import HealthCheck, given, settings, strategies as st

from symdual.cli import main

SCHEMA_KEYS = [
    "c", "k", "generators", "counts", "matrix", "support", "count", "bound",
    "lower", "upper", "f", "g",
]

# Fixed flags per command: single widths where a command takes no range, and
# small widths so that well-formed documents stay cheap.
FLAGS = {
    "dual-gens": ["--n", "3"],
    "count": ["--n", "2..4"],
    "fit": ["--n", "2..5"],
    "min-degree": ["--n", "2..4"],
    "faces": ["--j", "1", "--n", "2..3"],
    "facets": ["--n", "3"],
    "cone": ["--n", "0..3"],
    "match": [],
    "verify": ["--n", "2"],
}

small = st.integers(-2, 6)
scalars = small | st.sampled_from(SCHEMA_KEYS) | st.booleans() | st.none() | st.text(max_size=3)
noise = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def subsets(draw, c):
    return sorted(set(draw(st.lists(st.integers(1, c), min_size=1, max_size=c))))


@st.composite
def systems(draw):
    c = draw(st.integers(1, 4))
    generators = [
        {"counts": [{"support": draw(subsets(c)), "count": draw(st.integers(1, 2))}
                    for _ in range(draw(st.integers(1, 2)))]}
        for _ in range(draw(st.integers(1, 2)))
    ]
    return {"c": c, "generators": generators}


@st.composite
def polyhedra(draw):
    k = draw(st.integers(1, 4))
    lower = [{"support": [j], "bound": draw(small)} for j in range(1, k + 1)]
    lower += [{"support": draw(subsets(k)), "bound": draw(small)}
              for _ in range(draw(st.integers(0, 3)))]
    upper = [{"support": draw(subsets(k)), "bound": draw(small)}
             for _ in range(draw(st.integers(0, 2)))]
    return {"k": k, "lower": lower, "upper": upper}


@st.composite
def matches(draw):
    c = draw(st.integers(1, 4))
    size = draw(st.integers(0, 6))
    side = st.lists(st.lists(st.integers(1, c), max_size=c, unique=True),
                    min_size=size, max_size=size)
    return {"c": c, "f": draw(side), "g": draw(side)}


@st.composite
def documents(draw):
    """A well-formed document of one command, or arbitrary JSON; half of the
    well-formed ones get one field replaced by arbitrary JSON or dropped."""
    doc = draw(st.one_of(systems(), polyhedra(), matches(), noise))
    if isinstance(doc, dict) and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc) + SCHEMA_KEYS))
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(noise)
    return doc


@settings(
    max_examples=200,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(doc=documents())
def test_any_document_exits_cleanly(doc):
    text = json.dumps(doc)
    for command, flags in FLAGS.items():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, f"--json={text}", *flags])
        assert code in (0, 2, 3, 4), (command, code)
        if code:
            assert err.getvalue().count("\n") == 1, (command, err.getvalue())
            assert err.getvalue().endswith("\n") and out.getvalue() == ""
        else:
            assert json.loads(out.getvalue())["schema"] == "symdual/1"
