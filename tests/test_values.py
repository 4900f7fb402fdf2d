"""The value-type contract of the package's immutable records."""

import copy
import dataclasses
import inspect
import math
import operator
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest

import fracfreq
from fracfreq import (
    CaseIIParams,
    CaseIParams,
    Complex,
    FracPoly,
    FracTerm,
    FracTF,
    FrequencyGrid,
    PolarForm,
    ResponsePoint,
    branch_count,
    eval_poly,
    eval_tf,
    nth_roots,
    parse_tf,
    pow_branch,
    principal_pow,
    response_at,
)
from fracfreq.response import MAX_GRID_POINTS
from helpers import child_env

# (factory, repr, one field name).  Each repr is the string these types
# printed as frozen dataclasses, except that a real field given as an
# int is now stored, and printed, as a double.
EXAMPLES = [
    (lambda: FracTerm(2, 0.5), "FracTerm(coeff=2.0, exponent=0.5)", "coeff"),
    (
        lambda: FracPoly((FracTerm(2, 0.5), FracTerm(1, 0))),
        "FracPoly(terms=(FracTerm(coeff=2.0, exponent=0.5), FracTerm(coeff=1.0, exponent=0.0)))",
        "terms",
    ),
    (
        lambda: parse_tf("(3*s^0.5+2)/(s^1.2+1)"),
        "FracTF(numerator=FracPoly(terms=(FracTerm(coeff=3.0, exponent=0.5), "
        "FracTerm(coeff=2.0, exponent=0.0))), denominator=FracPoly(terms=("
        "FracTerm(coeff=1.0, exponent=1.2), FracTerm(coeff=1.0, exponent=0.0))))",
        "denominator",
    ),
    (
        lambda: FrequencyGrid(),
        "FrequencyGrid(omega_min=0.01, omega_max=100.0, points_per_decade=20)",
        "omega_max",
    ),
    (lambda: Complex(1, -2.5), "Complex(re=1.0, im=-2.5)", "im"),
    (lambda: CaseIParams(2, 0.25), "CaseIParams(omega=2.0, alpha=0.25)", "alpha"),
    (
        lambda: CaseIIParams(1.0, 2.0, 10.0, 0.5),
        "CaseIIParams(a=1.0, b=2.0, omega=10.0, alpha=0.5)",
        "b",
    ),
    (lambda: PolarForm(1.0, 0.5), "PolarForm(r=1.0, phi=0.5)", "phi"),
    (
        lambda: ResponsePoint(2, 0.5, -6.0, 0.25, 14.0),
        "ResponsePoint(omega=2.0, mag_linear=0.5, mag_db=-6.0, phase_rad=0.25, phase_deg=14.0)",
        "mag_db",
    ),
]
IDS = [text.split("(")[0] for _, text, _ in EXAMPLES]


@pytest.mark.parametrize("make,text,field", EXAMPLES, ids=IDS)
class TestValueContract:
    def test_repr(self, make, text, field):
        assert repr(make()) == text

    def test_equal_fields_are_equal_with_equal_hash(self, make, text, field):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_assignment_and_deletion_raise(self, make, text, field):
        value = make()
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.not_a_field = 1.0
        # Records share tuple's layout, so only Value.__setattr__ keeps one
        # from becoming an unchecked record of another class.
        other = PolarForm if type(value) is Complex else Complex
        with pytest.raises(AttributeError):
            value.__class__ = other
        assert type(value) is type(make())
        assert getattr(value, field) is before

    def test_copy_and_pickle_round_trip(self, make, text, field):
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value
            assert repr(twin) == text

    def test_record_is_its_tuple_but_equals_only_a_record(self, make, text, field):
        value = make()
        names = list(inspect.signature(type(value)).parameters)
        row = tuple(getattr(value, name) for name in names)
        assert tuple(value) == row and len(value) == len(names) and value[-1] == row[-1]
        assert value != row and row != value and not value == row and not row == value
        assert not hasattr(value, "__dict__")
        # The record with its named field changed: a real halved, the terms of a
        # polynomial without the first.
        old = getattr(value, field)
        if type(old) is float:
            new = old / 2
        elif type(old) is FracPoly:
            new = FracPoly(old.terms[1:])
        else:
            new = old[1:]
        other = type(value)(**{**dict(zip(names, value)), field: new})
        assert other != value
        for a, b in [(value, other), (other, value), (value, make())]:
            for order in (operator.lt, operator.le, operator.gt, operator.ge):
                assert order(a, b) == order(tuple(a), tuple(b))


# pickle.dumps(record, protocol=2) of each EXAMPLES record, as written by
# the package when its records stored their fields in __slots__ and
# ResponsePoint pickled through __getnewargs__.
EARLIER_PICKLES = {
    "FracTerm": (
        b"\x80\x02cfracfreq.tf\nFracTerm\nq\x00G@\x00\x00\x00\x00\x00\x00\x00G?\xe0\x00\x00\x00"
        b"\x00\x00\x00\x86q\x01Rq\x02."
    ),
    "FracPoly": (
        b"\x80\x02cfracfreq.tf\nFracPoly\nq\x00cfracfreq.tf\nFracTerm\nq\x01G@\x00\x00\x00\x00"
        b"\x00\x00\x00G?\xe0\x00\x00\x00\x00\x00\x00\x86q\x02Rq\x03h\x01G?\xf0\x00\x00\x00\x00"
        b"\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86q\x04Rq\x05\x86q\x06\x85q\x07Rq\x08."
    ),
    "FracTF": (
        b"\x80\x02cfracfreq.tf\nFracTF\nq\x00cfracfreq.tf\nFracPoly\nq\x01cfracfreq.tf\nFracTer"
        b"m\nq\x02G@\x08\x00\x00\x00\x00\x00\x00G?\xe0\x00\x00\x00\x00\x00\x00\x86q\x03Rq\x04h"
        b"\x02G@\x00\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86q\x05Rq\x06"
        b"\x86q\x07\x85q\x08Rq\th\x01h\x02G?\xf0\x00\x00\x00\x00\x00\x00G?\xf3333333\x86q\nRq"
        b"\x0bh\x02G?\xf0\x00\x00\x00\x00\x00\x00G\x00\x00\x00\x00\x00\x00\x00\x00\x86q\x0cRq\r"
        b"\x86q\x0e\x85q\x0fRq\x10\x86q\x11Rq\x12."
    ),
    "FrequencyGrid": (
        b"\x80\x02cfracfreq.response\nFrequencyGrid\nq\x00G?\x84z\xe1G\xae\x14{G@Y\x00\x00\x00"
        b"\x00\x00\x00K\x14\x87q\x01Rq\x02."
    ),
    "Complex": (
        b"\x80\x02cfracfreq.complexmath\nComplex\nq\x00G?\xf0\x00\x00\x00\x00\x00\x00G\xc0\x04"
        b"\x00\x00\x00\x00\x00\x00\x86q\x01Rq\x02."
    ),
    "CaseIParams": (
        b"\x80\x02cfracfreq.closed_form\nCaseIParams\nq\x00G@\x00\x00\x00\x00\x00\x00\x00G?\xd0"
        b"\x00\x00\x00\x00\x00\x00\x86q\x01Rq\x02."
    ),
    "CaseIIParams": (
        b"\x80\x02cfracfreq.closed_form\nCaseIIParams\nq\x00(G?\xf0\x00\x00\x00\x00\x00\x00G@"
        b"\x00\x00\x00\x00\x00\x00\x00G@$\x00\x00\x00\x00\x00\x00G?\xe0\x00\x00\x00\x00\x00\x00"
        b"tq\x01Rq\x02."
    ),
    "PolarForm": (
        b"\x80\x02cfracfreq.roots\nPolarForm\nq\x00G?\xf0\x00\x00\x00\x00\x00\x00G?\xe0\x00\x00"
        b"\x00\x00\x00\x00\x86q\x01Rq\x02."
    ),
    "ResponsePoint": (
        b"\x80\x02cfracfreq.point\nResponsePoint\nq\x00(G@\x00\x00\x00\x00\x00\x00\x00G?\xe0"
        b"\x00\x00\x00\x00\x00\x00G\xc0\x18\x00\x00\x00\x00\x00\x00G?\xd0\x00\x00\x00\x00\x00"
        b"\x00G@,\x00\x00\x00\x00\x00\x00tq\x01\x81q\x02."
    ),
}


@pytest.mark.parametrize("make,text,field", EXAMPLES, ids=IDS)
def test_earlier_pickles_load(make, text, field):
    value = pickle.loads(EARLIER_PICKLES[text.split("(")[0]])
    assert type(value) is type(make())
    assert value == make()
    assert repr(value) == text


def test_different_classes_with_equal_fields_are_unequal():
    pairs = [Complex(1.0, 0.5), PolarForm(1.0, 0.5), CaseIParams(1.0, 0.5), (1.0, 0.5)]
    for i, a in enumerate(pairs):
        for b in pairs[i + 1 :]:
            assert a != b and b != a


def test_keyword_and_default_construction():
    assert FrequencyGrid() == FrequencyGrid(0.01, 100.0, 20)
    assert FrequencyGrid(points_per_decade=2) == FrequencyGrid(0.01, 100.0, 2)
    assert Complex(re=1.0) == Complex(1.0, 0.0)
    assert FracTerm(exponent=2, coeff=3) == FracTerm(3.0, 2.0)
    assert CaseIIParams(alpha=0.5, omega=3.0, b=2.0, a=1.0) == CaseIIParams(1.0, 2.0, 3.0, 0.5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FracTerm(1.0),
        lambda: FracPoly(),
        lambda: FracTF(FracPoly.constant(1.0)),
        lambda: FrequencyGrid(0.1, 10.0, 2, 3),
        lambda: Complex(),
        lambda: CaseIParams(1.0, 0.5, 0.5),
        lambda: CaseIIParams(1.0, 2.0, 3.0),
        lambda: PolarForm(1.0),
        lambda: ResponsePoint(1.0, 1.0, 0.0, 0.0),
    ],
    ids=IDS,
)
def test_wrong_argument_count_is_type_error(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: FracTerm(10**400, 1),
        lambda: FracTerm(1, 10**400),
        lambda: Complex(10**400),
        lambda: Complex(0.0, -(10**400)),
        lambda: FrequencyGrid(10**400, 10.0**300, 1),
        lambda: CaseIParams(10**400, 0.5),
        lambda: CaseIParams(1.0, 10**400),
        lambda: CaseIIParams(1, 10**400, 1, 0.5),
        lambda: CaseIIParams(10**400, 1, 1, 0.5),
        lambda: PolarForm(10**400, 0.0),
    ],
    ids=[
        "FracTerm-coeff",
        "FracTerm-exponent",
        "Complex-re",
        "Complex-im",
        "FrequencyGrid-omega_min",
        "CaseIParams-omega",
        "CaseIParams-alpha",
        "CaseIIParams-b",
        "CaseIIParams-a",
        "PolarForm-r",
    ],
)
def test_int_beyond_double_is_value_error(make):
    with pytest.raises(ValueError, match="must"):
        make()


TF = parse_tf("1/(s^0.5+1)")

# (parameter, its rule, a call that passes x as that parameter, one
# value outside the parameter's range).
REAL_PARAMETERS = [
    ("FracTerm-coeff", "coefficient must be finite", lambda x: FracTerm(x, 1.0), "one"),
    ("FracTerm-exponent", "exponent must be finite and >= 0", lambda x: FracTerm(1.0, x), -0.5),
    (
        "FrequencyGrid-omega_min",
        "omega_min must be finite and > 0",
        lambda x: FrequencyGrid(x, 10.0),
        0.0,
    ),
    (
        "FrequencyGrid-omega_max",
        "omega_max must be finite and > omega_min",
        lambda x: FrequencyGrid(0.1, x),
        0.1,
    ),
    ("Complex-re", "real part must be finite", lambda x: Complex(x, 0.0), "one"),
    ("Complex-im", "imaginary part must be finite", lambda x: Complex(0.0, x), "one"),
    ("CaseIParams-omega", "omega must be finite and > 0", lambda x: CaseIParams(x, 0.5), 0.0),
    (
        "CaseIParams-alpha",
        "alpha must lie strictly in (0, 1)",
        lambda x: CaseIParams(1.0, x),
        1.0,
    ),
    ("CaseIIParams-a", "gain a must be finite and > 0", lambda x: CaseIIParams(x, 1, 1, 0.5), 0.0),
    (
        "CaseIIParams-b",
        "offset b must be finite and > 0",
        lambda x: CaseIIParams(1, x, 1, 0.5),
        -1.0,
    ),
    (
        "CaseIIParams-omega",
        "omega must be finite and > 0",
        lambda x: CaseIIParams(1, 1, x, 0.5),
        -0.0,
    ),
    (
        "CaseIIParams-alpha",
        "alpha must lie strictly in (0, 1)",
        lambda x: CaseIIParams(1, 1, 1, x),
        0.0,
    ),
    ("PolarForm-r", "modulus must be finite and >= 0", lambda x: PolarForm(x, 0.0), -1.0),
    ("PolarForm-phi", "angle must lie in (-pi, pi]", lambda x: PolarForm(1.0, x), -math.pi),
    (
        "principal_pow-alpha",
        "exponent must be finite and >= 0",
        lambda x: principal_pow(Complex(1.0, 0.0), x),
        -1.0,
    ),
    ("branch_count-alpha", "exponent must lie in (0, 1]", branch_count, 1.5),
    ("eval_tf-omega", "omega must be finite and > 0", lambda x: eval_tf(TF, x), 0.0),
    (
        "eval_poly-omega",
        "omega must be finite and > 0",
        lambda x: eval_poly(TF.denominator, x),
        0.0,
    ),
    ("response_at-omega", "omega must be finite and > 0", lambda x: response_at(TF, x), -1.0),
    (
        "ResponsePoint-omega",
        "omega must be finite",
        lambda x: ResponsePoint(x, 1.0, 0.0, 0.0, 0.0),
        "one",
    ),
    (
        "ResponsePoint-mag_linear",
        "mag_linear must be finite",
        lambda x: ResponsePoint(1.0, x, 0.0, 0.0, 0.0),
        "one",
    ),
    (
        "ResponsePoint-phase_rad",
        "phase_rad must be finite",
        lambda x: ResponsePoint(1.0, 1.0, 0.0, x, 0.0),
        "one",
    ),
    (
        "ResponsePoint-phase_deg",
        "phase_deg must be finite",
        lambda x: ResponsePoint(1.0, 1.0, 0.0, 0.0, x),
        "one",
    ),
]
NOT_IN_ANY_RANGE = [
    (True, "bool"),
    (10**5000, "int_beyond_double"),
    (math.nan, "nan"),
    (math.inf, "inf"),
    (-math.inf, "-inf"),
]


@pytest.mark.parametrize(
    "call,rule,x",
    [
        (call, rule, x)
        for _, rule, call, out in REAL_PARAMETERS
        for x, _ in NOT_IN_ANY_RANGE + [(out, "out_of_range")]
    ],
    ids=[
        f"{name}-{label}"
        for name, *_ in REAL_PARAMETERS
        for _, label in NOT_IN_ANY_RANGE + [(None, "out_of_range")]
    ],
)
def test_bad_real_raises_its_rule(call, rule, x):
    with pytest.raises(ValueError) as excinfo:
        call(x)
    message = str(excinfo.value)
    assert message.startswith(rule + ", got "), message
    assert len(message) < 200


def test_response_point_mag_db_may_be_minus_inf_only():
    # The dB of an exact-zero response is the one non-finite field value.
    zero = ResponsePoint(1.0, 0.0, -math.inf, 0.0, 0.0)
    assert zero.mag_db == -math.inf
    for x in (math.inf, math.nan, True, 10**5000):
        with pytest.raises(ValueError) as excinfo:
            ResponsePoint(1.0, 1.0, x, 0.0, 0.0)
        assert str(excinfo.value).startswith("mag_db must be finite or -inf, got ")
    with pytest.raises(ValueError, match="mag_linear must be finite"):
        dataclasses.replace(zero, mag_linear=math.nan)


@pytest.mark.parametrize(
    "make",
    [
        lambda: FrequencyGrid(0.1, 10.0, True),
        lambda: nth_roots(Complex(1.0, 0.0), True),
        lambda: pow_branch(Complex(1.0, 0.0), 0.5, True),
    ],
    ids=["FrequencyGrid-points_per_decade", "nth_roots-n", "pow_branch-k"],
)
def test_bool_count_is_value_error(make):
    with pytest.raises(ValueError, match="integer"):
        make()


HUGE = 10**5000


@pytest.mark.parametrize(
    "make,rule",
    [
        (lambda: FrequencyGrid(0.1, 10.0, -HUGE), "points_per_decade must be a positive integer"),
        (lambda: FrequencyGrid(0.1, 10.0, HUGE), f"grid would have more than {MAX_GRID_POINTS}"),
        (lambda: nth_roots(Complex(1.0, 0.0), -HUGE), "root order must be a positive integer"),
        (lambda: nth_roots(Complex(1.0, 0.0), HUGE), "root order must be a positive integer"),
        (lambda: pow_branch(Complex(1.0, 0.0), 0.5, -HUGE), "branch index must be an integer"),
        (lambda: pow_branch(Complex(1.0, 0.0), 0.5, HUGE), "branch index must be an integer"),
        # The bound itself is huge: branch_count(1e-300) has 300 digits.
        (lambda: pow_branch(Complex(1.0, 1.0), 1e-300, -1), "branch index must be an integer"),
        (lambda: pow_branch(Complex(1.0, 1.0), 5e-324, -1), "branch index must be an integer"),
    ],
    ids=[
        f"{name}-{sign}"
        for name in ("FrequencyGrid-points_per_decade", "nth_roots-n", "pow_branch-k")
        for sign in ("negative", "positive")
    ]
    + ["pow_branch-huge_bound-1e-300", "pow_branch-huge_bound-5e-324"],
)
def test_huge_count_raises_its_rule(make, rule):
    # An int of over 4,300 digits has no decimal string; the message must not need one.
    with pytest.raises(ValueError) as excinfo:
        make()
    message = str(excinfo.value)
    assert message.startswith(rule), message
    assert len(message) < 200


@pytest.mark.parametrize(
    "make,message",
    [
        (
            lambda: FrequencyGrid(0.1, 10.0, 0),
            "points_per_decade must be a positive integer, got 0",
        ),
        (
            lambda: nth_roots(Complex(1.0, 0.0), -3),
            "root order must be a positive integer, got -3",
        ),
        (
            lambda: pow_branch(Complex(1.0, 0.0), 0.5, 2),
            "branch index must be an integer in [0, 1], got 2",
        ),
        (
            lambda: pow_branch(Complex(1.0, 0.0), 0.5, True),
            "branch index must be an integer in [0, 1], got True",
        ),
    ],
    ids=["FrequencyGrid-zero", "nth_roots-negative", "pow_branch-past_last", "pow_branch-bool"],
)
def test_small_bad_count_message_shows_it(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "make,message",
    [
        (
            lambda: FracTF("x", FracPoly.constant(1.0)),
            "numerator must be a FracPoly, got str",
        ),
        (
            lambda: FracTF(FracPoly.constant(1.0), 1.0),
            "denominator must be a FracPoly, got float",
        ),
        (lambda: FracPoly((3,)), "terms must be FracTerm, got int"),
        (
            lambda: FracPoly((FracTerm(1.0, 1.0), SimpleNamespace(coeff=1.0, exponent=0.0))),
            "terms must be FracTerm, got SimpleNamespace",
        ),
        (
            lambda: FracPoly((SimpleNamespace(coeff=1.0, exponent=0.0),)),
            "terms must be FracTerm, got SimpleNamespace",
        ),
        (lambda: FracPoly.from_terms((3,)), "terms must be FracTerm, got int"),
        (lambda: FracPoly.from_terms(("x",)), "terms must be FracTerm, got str"),
        (
            lambda: FracPoly.from_terms([SimpleNamespace(coeff=1.0, exponent=0.0)]),
            "terms must be FracTerm, got SimpleNamespace",
        ),
    ],
    ids=[
        "FracTF-numerator",
        "FracTF-denominator",
        "FracPoly-int",
        "FracPoly-later_term",
        "FracPoly-namespace",
        "from_terms-int",
        "from_terms-str",
        "from_terms-namespace",
    ],
)
def test_bad_member_type_message_shows_it(make, message):
    with pytest.raises(ValueError) as excinfo:
        make()
    assert str(excinfo.value) == message


def test_every_public_name_resolves():
    for name in fracfreq.__all__:
        getattr(fracfreq, name)
    namespace = {}
    exec("from fracfreq import *", namespace)
    assert set(fracfreq.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        fracfreq.no_such_name


def test_records_and_their_functions_live_in_point():
    # ResponsePoint's module is part of every pickle of it.  emit serves
    # records and rows alike, so it lives with the rows in response.
    import fracfreq.point
    import fracfreq.response

    assert ResponsePoint.__module__ == "fracfreq.point"
    for name in ("ResponsePoint", "response_at", "sweep"):
        assert getattr(fracfreq, name) is getattr(fracfreq.point, name)
    assert fracfreq.emit is fracfreq.response.emit


def test_public_names_are_pinned():
    # __all__ is derived from the package's name table; a name dropped
    # from the table would vanish from __all__ and still "resolve".
    assert set(fracfreq.__all__) == {
        "CSV_HEADER", "CaseIIParams", "CaseIParams", "Complex", "EvaluationError",
        "FORMATS", "FracPoly", "FracTF", "FracTerm", "FrequencyGrid", "ParseError",
        "PolarForm", "ResponsePoint", "add", "affine_arg", "affine_jomega", "affine_mag",
        "affine_mag_omega2_cross_term", "argument", "branch_count", "div", "emit",
        "eval_poly", "eval_tf", "format_poly", "format_value", "jomega_pow",
        "jomega_pow_arg", "jomega_pow_mag", "magnitude", "mul", "nth_roots", "parse_tf",
        "pow_branch", "pretty_print", "principal_pow", "response_at", "sweep",
        "to_polar", "__version__",
    }


def test_import_loads_no_submodule():
    # Every submodule loads on the first use of one of its names.
    code = (
        "import sys; before = set(sys.modules); import fracfreq; "
        "print(sorted(set(sys.modules) - before))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, timeout=60, env=child_env()
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout.decode().strip() == "['fracfreq']"
