"""Fuzzing the fault and link-profile spec parsers.

Specs come from outside (the ``--faults`` and ``--link-profile`` flags),
so every text must either parse into a spec whose ``canonical()`` form
parses back to the same spec, or raise
:class:`~repro.errors.ConfigurationError`, the parsers' documented
error.  Through the CLI, a rejected spec is exit status 2 with exactly
one line on stderr.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.errors import ConfigurationError
from repro.net.faults import FaultSpec
from repro.net.mobility import LinkProfile

#: Spec values the parsers could take as numbers, in every spelling
#: ``int`` and ``float`` accept or nearly accept; the special values
#: are drawn as often as ordinary ones.
SPECIAL = st.sampled_from((
    "0", "-0", "+2", "1e-400", "1e308", "1e999", "inf", "-inf", "nan",
    "NaN", "1_0", "0x10", "٣", "1.5.2", "",
))
NUMBER = st.one_of(
    SPECIAL, SPECIAL,
    st.integers(-10_000, 10_000).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
#: Link names, mostly ones the profile grammar knows.
LINK = st.sampled_from(("wavelan", "wan", "gprs", "ethernet", "bluetooth"))
NAME = st.one_of(LINK, LINK, st.text(max_size=4))

#: Each key's value shape: ``N`` a number, ``W`` a word, ``?`` optional.
FAULT_KEYS = {"seed": "N", "loss": "N", "spike": "N?N", "partition": "NN",
              "crash_at_event": "N", "crash_at_time": "N"}
PROFILE_KEYS = {"step": "NW", "ramp": "NNWW?N", "link": "NWNN",
                "down": "NN"}


@st.composite
def shaped_value(draw, shape):
    fields = []
    optional = False
    for part in shape:
        if part == "?":
            optional = True
            continue
        if optional and draw(st.booleans()):
            break
        fields.append(draw(NUMBER if part == "N" else NAME))
    return ":".join(fields)


def spec_texts(keys):
    """Arbitrary text, and text shaped like the spec grammar."""
    free = st.lists(NUMBER | NAME, min_size=1, max_size=5).map(":".join)
    chunk = st.one_of(
        st.sampled_from(sorted(keys)).flatmap(
            lambda key: shaped_value(keys[key]).map(
                lambda value: f"{key}={value}")),
        st.tuples(st.sampled_from(sorted(keys)) | st.text(max_size=5),
                  free).map("=".join),
        st.text(max_size=8),
    )
    return (st.lists(chunk, max_size=5).map(",".join)
            | st.text(max_size=40))


def fault_outcome(text):
    """The parsed spec, or None when the parser rejected the text."""
    try:
        spec = FaultSpec.parse(text)
    except ConfigurationError:
        return None
    assert FaultSpec.parse(spec.canonical()) == spec
    return spec


def profile_outcome(text):
    try:
        profile = LinkProfile.parse(text)
    except ConfigurationError:
        return None
    again = LinkProfile.parse(profile.canonical())
    assert again.points == profile.points
    assert again.disconnections == profile.disconnections
    assert again.canonical() == profile.canonical()
    return profile


@given(spec_texts(FAULT_KEYS))
@example("spike=0:0")  # an inert spike length must still round-trip
@settings(max_examples=500, deadline=None)
def test_fault_specs_parse_and_round_trip_or_are_rejected(text):
    fault_outcome(text)


@given(spec_texts(PROFILE_KEYS))
@example("step=nan:wavelan")  # NaN times were accepted and never
@example("down=nan:5")        # compared equal again
@settings(max_examples=500, deadline=None)
def test_link_profiles_parse_and_round_trip_or_are_rejected(text):
    profile_outcome(text)


@pytest.mark.parametrize("flag, outcome, keys", [
    ("--faults", fault_outcome, FAULT_KEYS),
    ("--link-profile", profile_outcome, PROFILE_KEYS),
])
@given(data=st.data())
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_rejected_specs_are_one_line_usage_errors(capsys, flag, outcome,
                                                  keys, data):
    text = data.draw(spec_texts(keys).filter(
        lambda text: text.strip() and outcome(text) is None))
    # A value that starts with a dash reads as an option unless it is
    # attached to its flag.
    argv = ([f"{flag}={text}"] if text.startswith("-") else [flag, text])
    capsys.readouterr()
    assert main(["replay", "dia", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"bad {flag} spec")
