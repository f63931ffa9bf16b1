import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qafactor.formats import ModelFormatError, format_ports, parse_ports
from qafactor.gates import GateTemplate, and_gate, free_spin, half_adder, nor_gate
from qafactor.ising import IsingModel
from qafactor.synth import mult_unit_gate


def assert_ports_round_trip(template):
    parsed = parse_ports(format_ports(template), template.n)
    assert parsed == (template.ports, template.valid_set, template.gap)


@pytest.mark.parametrize("make", [nor_gate, and_gate, half_adder, mult_unit_gate,
                                  free_spin])
def test_shipped_gate_ports_round_trip(make):
    assert_ports_round_trip(make())


@st.composite
def templates(draw):
    n = draw(st.integers(1, 8))
    names = draw(st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True),
                          max_size=4, unique=True))
    ports = {name: draw(st.integers(0, n - 1)) for name in names}
    valid = draw(st.lists(st.tuples(*[st.integers(0, 1)] * n), min_size=1, max_size=8,
                         unique=True))
    gap = draw(st.floats(min_value=0.0))
    return GateTemplate(IsingModel(n, (0.0,) * n, {}), ports, tuple(valid), gap)


@given(templates())
@settings(max_examples=100, deadline=None)
def test_random_ports_round_trip(template):
    assert_ports_round_trip(template)


@pytest.mark.parametrize("text,line", [
    ("port a\n", 1),
    ("port out 2\n# comment\n\nvalid 0 0\n", 4),
    ("gap 2.0\nfoo bar\n", 2),
    ("valid 0 0 2\n", 1),
    ("valid 0 0 1\nport out 2\nvalid 0 0 1\n", 3),
    ("port out 2\nport out 1\n", 2),
    ("gap 2.0\nvalid 0 0 1\ngap 5.0\n", 3),
    ("port out 2\ngap nan\n", 2),
    ("port out 2\ngap -5\n", 2),
])
def test_sidecar_errors_carry_line_numbers(text, line):
    with pytest.raises(ModelFormatError) as err:
        parse_ports(text, 3)
    assert err.value.line == line


def test_port_outside_the_model_is_rejected():
    with pytest.raises(ModelFormatError, match="index 3 out of range") as err:
        parse_ports("port out 3\n", 3)
    assert err.value.line == 1
