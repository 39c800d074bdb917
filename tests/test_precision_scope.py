"""Global mpmath precision is restored by every certified-numerics entry
point, on normal return and when an exception leaves the scope."""

from fractions import Fraction

import pytest
from mpmath import iv, mp

import bergshift.mellin
import bergshift.quadrature
from bergshift.cli import EXIT_INCONCLUSIVE, EXIT_OK, dispatch
from bergshift.gamma_ratio import eval_ball, power_weight, working_precision
from bergshift.identities import verify_identity
from bergshift.mellin import RadialSymbol, bergman_quadrature_oracle
from bergshift.quadrature import QuadratureError, gauss_legendre_rule, integrate_adaptive
from bergshift.solver import match_root_power

# Distinct, unusual values, so a scope that restores one context from the
# other, or to a default, is caught.
MP_PREC, IV_PREC = 61, 79


@pytest.fixture(autouse=True)
def odd_precision():
    saved = mp.prec, iv.prec
    mp.prec, iv.prec = MP_PREC, IV_PREC
    yield
    mp.prec, iv.prec = saved


def restored() -> bool:
    return (mp.prec, iv.prec) == (MP_PREC, IV_PREC)


@pytest.fixture
def failing_gamma(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("gamma failed")

    monkeypatch.setattr(iv, "gamma", boom)


def _gamma_bearing_samples():
    """Exact values set against a root power that keeps Gamma content."""
    return [Fraction(k + 1, k + 2) for k in range(8)]


def test_scope_sets_both_contexts_and_restores_them():
    with working_precision(300):
        assert (mp.prec, iv.prec) == (300, 300)
    assert restored()


def test_scope_restores_after_exception():
    with pytest.raises(RuntimeError):
        with working_precision(300):
            raise RuntimeError
    assert restored()


def test_scope_rejects_nonpositive_precision():
    for bits in (0, -8):
        with pytest.raises(ValueError):
            with working_precision(bits):
                pass
    assert restored()


def test_eval_ball():
    eval_ball(power_weight(1, 2, 3), Fraction(4), 150)
    assert restored()


def test_eval_ball_exception(failing_gamma):
    with pytest.raises(RuntimeError):
        eval_ball(power_weight(1, 2, 3), Fraction(4), 150)
    assert restored()


# No term separates the two sides of this instance: its Gamma parts are matched.
MATCHED = ("functional", 2, 4, 1, 4, 1, 3)


def test_verify_identity_matched_parts_evaluate_no_gamma(failing_gamma):
    rep = verify_identity(*MATCHED, sample_zs=[Fraction(2 * k + 2) for k in range(6)])
    assert rep.exact and rep.verdict == "not_proportional"
    assert restored()


def test_verify_identity_structural_refutation_sets_no_precision(failing_gamma):
    rep = verify_identity("functional", 1, 2, 2, 3, m=2, l=3,
                          sample_zs=[Fraction(2 * k + 2) for k in range(6)])
    assert rep.exact and rep.verdict == "not_proportional"
    assert restored()


def test_match_root_power_ball_path():
    assert match_root_power(_gamma_bearing_samples(), 1, 2, 3) is None
    assert restored()


def test_match_root_power_gamma_bearing_samples_evaluate_no_ball(failing_gamma):
    # The solver keeps exact constants only, so a Gamma-bearing power weight
    # is rejected before any certified evaluation could run.
    assert match_root_power(_gamma_bearing_samples(), 1, 2, 3) is None
    assert restored()


def test_quadrature_oracle():
    bergman_quadrature_oracle(1, RadialSymbol.monomial(2), 3, digits=20)
    assert restored()


def test_quadrature_oracle_exception(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("quadrature failed")

    monkeypatch.setattr(bergshift.mellin, "integrate_adaptive", boom)
    with pytest.raises(RuntimeError):
        bergman_quadrature_oracle(1, RadialSymbol.monomial(2), 3, digits=20)
    assert restored()


def test_gauss_legendre_rule():
    gauss_legendre_rule(5, 123)
    assert restored()


def test_fixed_point_kernel():
    # a rule at a new fixed-point precision is computed under a scope
    integrate_adaptive([(1, 3), (-2, 7)], [0, 0.5, 1], mp.mpf(10) ** -15)
    assert restored()


def test_fixed_point_kernel_exception(monkeypatch):
    monkeypatch.setattr(bergshift.quadrature, "MAX_WORK", 9)
    with pytest.raises(QuadratureError):
        integrate_adaptive([(1, 3)], [0, 1], -1)  # no estimate is below a negative tolerance
    assert restored()


def test_cli_oracle_quadrature(capsys):
    assert dispatch(["oracle-quadrature", "--p", "1", "--symbol", "r^2", "--k", "2"]) == EXIT_OK
    assert restored()


def test_cli_oracle_quadrature_early_return(monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise QuadratureError(mp.mpf(1), mp.mpf(0))

    monkeypatch.setattr(bergshift.mellin, "integrate_adaptive", no_convergence)
    code = dispatch(["oracle-quadrature", "--p", "1", "--symbol", "r^2", "--k", "2"])
    assert code == EXIT_INCONCLUSIVE
    assert restored()
