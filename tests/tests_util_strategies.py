"""Hypothesis strategy for parsed Boolean systems, shared by DSL and reach tests.

`systems()` draws SystemSpecs directly, so it covers what
`tests_util_systems.random_system_source` never produces: primed
references in any position, names that are near-misses of keywords, and
systems without state variables.
"""

from hypothesis import strategies as st

from logzono.dsl import _KEYWORDS, And, Const, Nand, Nor, Not, Or, SystemSpec, Var, Xnor, Xor

# letters that spell the keywords, so drawn names include keyword prefixes
# and near-misses such as "ins" or "xno"
_HEAD = "abcinstxzAZ_"
_NAMES = st.builds(str.__add__, st.sampled_from(_HEAD),
                   st.text(_HEAD + "dehlmoprtu09", max_size=5)).filter(
    lambda name: name not in _KEYWORDS)
_DOMAINS = st.sampled_from([(0,), (1,), (0, 1)])
_BINARY = (Xor, And, Or, Nand, Nor, Xnor)


# expression shapes with int leaves, bound to variables per system: one
# strategy built once is far cheaper than a new st.recursive per rule
_SHAPES = st.recursive(
    st.integers(0, 7) | st.builds(Const, st.sampled_from([0, 1])),
    lambda sub: st.builds(Not, sub) | st.builds(
        lambda op, a, b: op(a, b), st.sampled_from(_BINARY), sub, sub),
    max_leaves=8)


def _bind(e, leaves):
    """Replace int leaf i with leaves[i % len(leaves)] (a constant if none)."""
    if isinstance(e, int):
        return leaves[e % len(leaves)] if leaves else Const(e & 1)
    if isinstance(e, Const):
        return e
    if isinstance(e, Not):
        return Not(_bind(e.e, leaves))
    return type(e)(_bind(e.a, leaves), _bind(e.b, leaves))


@st.composite
def systems(draw):
    names = draw(st.lists(_NAMES, min_size=0, max_size=5, unique=True))
    n_x = draw(st.integers(0, len(names)))
    state, inputs = names[:n_x], names[n_x:]
    plain = [Var(v) for v in names]
    updates = {}
    # primed references may only name rules defined earlier
    for v in draw(st.permutations(state)):
        updates[v] = _bind(draw(_SHAPES), plain + [Var(u, True) for u in updates])
    return SystemSpec(tuple(state), tuple(inputs), updates,
                      {v: draw(_DOMAINS) for v in state},
                      {u: draw(_DOMAINS) for u in inputs},
                      draw(st.integers(0, 1000)))
