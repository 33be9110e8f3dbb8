"""Text-format parsing, error reporting and round-tripping."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sfpa.galileo
from sfpa import (
    FaultTree,
    GateKind,
    GenConfig,
    ParseError,
    ValidationError,
    generate,
    parse_ft,
    serialize_ft,
)
from helpers import (
    FIG1_TEXT,
    HUGE_EXPONENTS,
    fig2,
    make_rng,
    random_tree,
    trees_equivalent,
)


def test_parse_fig1():
    t = parse_ft(FIG1_TEXT)
    assert len(t.basic_events()) == 3
    assert len(t) - len(t.basic_events()) == 3
    assert t.names[t.root] == "planecrash"
    assert t.probs[t.name_to_id["nofuel"]] == 0.3
    # nofuel is the shared child
    assert len(t.parents[t.name_to_id["nofuel"]]) == 2


def test_parse_single_be():
    t = parse_ft('toplevel "only";\n"only" prob=0.25;\n')
    assert len(t) == 1
    assert t.kinds[t.root] is GateKind.BE
    assert t.probs[t.root] == 0.25


def test_parse_exact_probabilities():
    t = parse_ft('toplevel "only";\n"only" prob=0.1;\n', exact=True)
    assert t.probs[t.root] == Fraction(1, 10)


def test_ratio_probabilities():
    text = 'toplevel "only";\n"only" prob=1/3;\n'
    assert parse_ft(text, exact=True).probs[0] == Fraction(1, 3)
    # float mode reads the float nearest to the ratio, the value that the
    # decimal the serializer used to write for 1/3 reads as
    old = parse_ft(text.replace("1/3", "0.3333333333333333")).probs[0]
    assert parse_ft(text).probs[0] == float(Fraction(1, 3)) == old


def test_exact_probabilities_round_trip():
    t = FaultTree.build("top", {"top": ("or", ["a", "b"])},
                        {"a": Fraction(1, 3), "b": Fraction(1, 4)})
    text = serialize_ft(t)
    assert text == ('toplevel "top";\n"top" or "a" "b";\n'
                    '"a" prob=1/3;\n"b" prob=0.25;\n')
    again = parse_ft(text, exact=True)
    assert again.probs == t.probs
    assert serialize_ft(again) == text


def test_unquoted_names_accepted():
    t = parse_ft("toplevel top;\ntop and a b;\na prob=0.5;\nb prob=0.5;\n")
    assert set(t.names) == {"top", "a", "b"}


def test_comments_and_blank_lines():
    text = "\n// header\ntoplevel \"x\"; // trailing\n\n\"x\" prob=1;\n"
    assert len(parse_ft(text)) == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ('toplevel "g";\n"g" and "x";\n"g2" prob=0.5;\n', "'x'"),
        ('toplevel "g";\n"g" and "b";\n"b" prob=0.5;\n"b" prob=0.5;\n', "twice"),
        ('toplevel "b";\n"b" prob=1.5;\n', "outside"),
        ('toplevel "b";\n"b" prob=abc;\n', "bad probability"),
        ('"b" prob=0.5;\n', "no toplevel"),
        ('toplevel "a";\ntoplevel "b";\n"a" prob=1;\n"b" prob=1;\n', "already"),
        ('toplevel "g";\n"g" and;\n', "no children"),
        ('toplevel "b";\n"b" prob=0.5\n', "';'"),
        ('toplevel "b";\nwat is this;\n', "cannot parse"),
        ('toplevel "b";\n"b" prob=1/0;\n', "bad probability"),
        ('toplevel "b";\n"b" prob=1.5/2;\n', "bad probability"),
        ('toplevel "b";\n"b" prob=4/3;\n', "outside"),
        *(('toplevel "b";\n"b" prob=%s;\n' % literal, "bad probability")
          for literal in HUGE_EXPONENTS),
    ],
)
def test_parse_errors(text, fragment):
    # every case fails in exact mode; a huge exponent fails only there
    with pytest.raises(ParseError, match=fragment):
        parse_ft(text, exact=True)
    if not any(literal in text for literal in HUGE_EXPONENTS):
        with pytest.raises(ParseError, match=fragment):
            parse_ft(text)


def test_huge_exponents_in_float_mode():
    big, tiny, zero = HUGE_EXPONENTS
    with pytest.raises(ParseError, match="outside"):
        parse_ft('toplevel "b";\n"b" prob=%s;\n' % big)
    for literal in (tiny, zero):
        t = parse_ft('toplevel "b";\n"b" prob=%s;\n' % literal)
        assert t.probs[0] == 0.0 and type(t.probs[0]) is float


def test_exact_exponent_bound():
    bound = sfpa.galileo._MAX_EXPONENT
    for exponent in (bound, -bound):
        t = parse_ft('toplevel "b";\n"b" prob=0e%d;\n' % exponent, exact=True)
        assert t.probs[0] == 0
    t = parse_ft('toplevel "b";\n"b" prob=1e-%d;\n' % bound, exact=True)
    assert t.probs[0] == Fraction(1, 10**bound)
    for exponent in (bound + 1, -bound - 1):
        with pytest.raises(ParseError, match="bad probability"):
            parse_ft('toplevel "b";\n"b" prob=0e%d;\n' % exponent, exact=True)


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as info:
        parse_ft('toplevel "b";\n"b" prob=2;\n')
    assert info.value.line == 2


_PROLOGUE = '// a comment\ntoplevel "g";\n\n"g" or "a";\n"a" prob=0.5;\n'


@pytest.mark.parametrize(
    "line,message",
    [
        ('"b" prob=0.5', "declaration does not end with ';'"),
        ("  ;  // empty", "empty declaration"),
        ("toplevel a b;", "toplevel takes exactly one name"),
        ('toplevel "b";', "toplevel already declared on line 2"),
        ('"b" and;', "gate 'b' has no children"),
        ('"b" prob=x;', "bad probability 'x'"),
        ('"b" prob=2;', "probability 2 outside [0,1]"),
        ('"b" xor "a";', "cannot parse declaration '\"b\" xor \"a\";'"),
        ('"a" prob=0.5;', "node 'a' declared twice"),
    ],
)
def test_line_level_errors_carry_their_line_number(line, message):
    # the offending declaration is line 6: comment and blank lines count
    with pytest.raises(ParseError) as info:
        parse_ft(_PROLOGUE + line + "\n")
    assert info.value.line == 6
    assert str(info.value) == "line 6: " + message


@pytest.mark.parametrize(
    "text,message",
    [
        ('"b" prob=0.5;\n', "no toplevel declaration"),
        ('toplevel "c";\n"b" prob=0.5;\n', "toplevel names unknown node 'c'"),
    ],
)
def test_whole_file_errors_carry_no_line_number(text, message):
    with pytest.raises(ParseError) as info:
        parse_ft(text)
    assert info.value.line is None
    assert str(info.value) == message


def test_undeclared_reference_names_the_first_gate_declared():
    text = (
        'toplevel "top";\n"top" or "g2" "g1";\n"g2" or "x" "zz" "yy";\n'
        '"g1" or "aa" "x";\n"x" prob=0.5;\n'
    )
    with pytest.raises(ParseError) as info:
        parse_ft(text)
    assert info.value.line is None
    assert str(info.value) == "gate 'g2' references undeclared node 'zz'"


def test_cycle_reported():
    text = (
        'toplevel "a";\n"a" and "b";\n"b" and "c";\n"c" and "b" "d";\n'
        '"d" prob=0.5;\n'
    )
    from sfpa import ValidationError

    with pytest.raises(ValidationError, match="cycle"):
        parse_ft(text)


def test_serialize_is_deterministic_and_round_trips():
    t = fig2()
    text = serialize_ft(t)
    assert text == serialize_ft(t)
    assert text.splitlines()[0] == 'toplevel "h";'
    again = parse_ft(text)
    assert trees_equivalent(t, again)


def test_round_trip_random_trees():
    rng = make_rng(41)
    for _ in range(25):
        t = random_tree(rng, max_be=6, max_gates=5, max_multiparent=3)
        again = parse_ft(serialize_ft(t))
        assert trees_equivalent(t, again)
        # serialization of the reparse is identical text
        assert serialize_ft(again) == serialize_ft(t)


def test_serialize_fig2_golden_bytes():
    assert serialize_ft(fig2()) == (
        'toplevel "h";\n'
        '"h" and "f" "g";\n'
        '"f" and "d" "e";\n'
        '"d" or "a" "b";\n'
        '"e" or "b" "c";\n'
        '"a" prob=0.5;\n'
        '"b" prob=0.5;\n'
        '"c" prob=0.5;\n'
        '"g" prob=0.5;\n'
    )


def test_serialize_multiparent_golden_bytes():
    # after g0000, g0001 and g0003 are both ready: smallest id first
    # writes g0001 g0002 g0003, largest id first writes g0003 first and
    # first-in-first-out writes g0003 before g0002
    t = generate(GenConfig(seed=0, n_be=6, n_gates=6, n_multiparent=3))
    assert t.multiparent_nodes() == [5, 6, 11]
    assert serialize_ft(t) == (
        'toplevel "g0000";\n'
        '"g0000" or "g0001" "g0003" "g0005" "be0005";\n'
        '"g0001" or "g0002";\n'
        '"g0002" or "g0004" "be0003" "be0005" "be0000";\n'
        '"g0003" and "be0001" "be0002" "be0004";\n'
        '"g0004" or "g0005";\n'
        '"g0005" or "be0000";\n'
        '"be0000" prob=0.4573754160865701;\n'
        '"be0001" prob=0.4836371202076718;\n'
        '"be0002" prob=0.24373479051083136;\n'
        '"be0003" prob=0.43400186460810364;\n'
        '"be0004" prob=0.1376412320920601;\n'
        '"be0005" prob=0.40446363523638096;\n'
    )


def described(t):
    """Everything the text format carries, keyed by name."""
    return t.names[t.root], {
        t.names[v]: (t.kinds[v], [t.names[w] for w in t.children[v]],
                     t.probs.get(v))
        for v in range(len(t))
    }


def rename(shape, names):
    """``FaultTree.build`` on the structure of ``shape`` with new names."""
    gates = {
        names[v]: (shape.kinds[v], [names[w] for w in shape.children[v]])
        for v in range(len(shape)) if shape.children[v]
    }
    probs = {names[v]: p for v, p in shape.probs.items()}
    return FaultTree.build(names[shape.root], gates, probs)


def writable(name):
    return not (name == "toplevel" or '"' in name or "//" in name
                or len(("x" + name + "x").splitlines()) != 1)


@pytest.mark.parametrize(
    "name", ["a b", "a;b", "and", "or", "prob=0.5", "", "TOPLEVEL", " x\t"]
)
def test_awkward_names_round_trip(name):
    t = rename(fig2(), ["h", "f", "d", "e", name, "b", "c", "g"])
    again = parse_ft(serialize_ft(t))
    assert described(again) == described(t)


@pytest.mark.parametrize(
    "name",
    ['a"b', "a//b", "toplevel", "a\n", "\u2029"]
    + ["a%sb" % c for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"],
)
def test_unwritable_names_rejected(name):
    assert not writable(name)
    with pytest.raises(ValidationError, match="cannot be written"):
        rename(fig2(), ["h", "f", "d", "e", name, "b", "c", "g"])


_NAMES = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='"/;= \n\r\x0b\x1c\x85\u2028ab', max_size=4),
    st.sampled_from(["toplevel", "TOPLEVEL", "and", "or", "prob=0.5", ""]),
)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), exact=st.booleans(), data=st.data())
def test_every_accepted_tree_round_trips(seed, exact, data):
    shape = random_tree(make_rng(seed), max_be=5, max_gates=4, max_multiparent=3)
    if exact:
        drawn = data.draw(st.lists(st.fractions(0, 1, max_denominator=10**6),
                                   min_size=len(shape.probs),
                                   max_size=len(shape.probs)))
        shape = FaultTree(shape.names, shape.kinds, shape.children,
                          dict(zip(shape.probs, drawn)), shape.root)
    names = data.draw(st.lists(_NAMES, min_size=len(shape),
                               max_size=len(shape), unique=True))
    try:
        t = rename(shape, names)
    except ValidationError:
        assert not all(map(writable, names))
        return
    assert all(map(writable, names))
    text = serialize_ft(t)
    again = parse_ft(text, exact=exact)
    assert described(again) == described(t)
    assert serialize_ft(again) == text
