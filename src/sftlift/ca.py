"""Linear cellular automata over Z_N as factor codes on full shifts.

Two families on the full N-shift, both constant-to-one of degree N:

* difference: y_i = x_{i+1} - x_i (mod N).  Adding 1 to every coordinate
  sweeps each fiber, so the lifts of the image of a Bernoulli measure are
  its sweeps: a vector of least cyclic period L yields L distinct lifts,
  each of multiplicity N/L, exactly.

* sum: y_i = x_i + x_{i+1} (mod N), worked out for N = 5.  No sweep map
  exists; the fiber of x is {x + c*z : c} for the alternating-sign point z,
  which yields three lifts with multiplicities 1, 2, 2 whenever the
  displaced measures are distinct (certified exactly via disjoint cylinder
  sets of mass > 1/2).

These analyzers are exact rational throughout and serve as ground truth
for the generic pipeline; ``cross_validate`` runs both and compares.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DegenerateMeasure, HypothesisNotMet, InputError, MismatchReport
from .graphs import OneBlockRecoding, SlidingBlockCode, _as_word
from .fibers import LiftEntry, LiftReport, MonteCarloParams, classify_lifts_monte_carlo
from .measures import (BernoulliMeasure, PushforwardMeasure, StationaryMeasure,
                       as_markov, compare_measures, has_two_point_factor,
                       parse_fraction)

import numpy as np


def _digits(modulus):
    return tuple(str(i) for i in range(modulus))


def difference_code(modulus: int) -> SlidingBlockCode:
    digits = _digits(modulus)
    block_map = {(a, b): str((int(b) - int(a)) % modulus) for a in digits for b in digits}
    return SlidingBlockCode(0, 1, digits, block_map)


def sum_code(modulus: int) -> SlidingBlockCode:
    digits = _digits(modulus)
    block_map = {(a, b): str((int(a) + int(b)) % modulus) for a in digits for b in digits}
    return SlidingBlockCode(0, 1, digits, block_map)


@dataclass(frozen=True)
class LinearCACode:
    """A difference or sum code together with its 1-block presentation."""

    modulus: int
    family: str                       # "difference" | "sum"

    def __post_init__(self):
        if self.family not in ("difference", "sum"):
            raise InputError(f"family must be 'difference' or 'sum', got {self.family!r}")
        if self.modulus < 2:
            raise InputError(f"modulus must be >= 2, got {self.modulus}")

    # every fiber is swept by x -> x + c (difference) or pinned by its first
    # coordinate (sum): both families are N-to-1 at every single point
    constant_to_one = True

    @cached_property
    def code(self) -> SlidingBlockCode:
        return difference_code(self.modulus) if self.family == "difference" else sum_code(self.modulus)

    @property
    def recoding(self) -> OneBlockRecoding:
        return self.code.recoding

    def describe(self):
        return {"type": "linear-ca", "family": self.family, "modulus": self.modulus}


def sweep_vector(alpha, k, modulus):
    """Probability vector of the k-fold sweep (add k mod N) of Bernoulli(alpha)."""
    return tuple(alpha[(j - k) % modulus] for j in range(modulus))


def least_cyclic_period(alpha) -> int:
    n = len(alpha)
    for ell in range(1, n + 1):
        if n % ell == 0 and all(alpha[(i + ell) % n] == alpha[i] for i in range(n)):
            return ell
    raise AssertionError("unreachable")


def _check_probability_vector(alpha, length):
    try:
        alpha = tuple(parse_fraction(a) for a in alpha)
    except InputError as exc:
        raise InputError(f"probability vector: {exc}") from None
    if len(alpha) != length:
        raise InputError(f"probability vector must have length {length}, got {len(alpha)}")
    if any(a < 0 for a in alpha) or sum(alpha) != 1:
        raise InputError("probability vector entries must be non-negative rationals "
                         "summing to 1 exactly")
    return alpha


def difference_lift_analysis(modulus: int, alpha) -> LiftReport:
    """Exact lifts of the image of Bernoulli(alpha) under the difference code.

    The lifts are the sweeps of the measure; there are L of them (L = least
    cyclic period of alpha), each of multiplicity N/L, and they are pairwise
    distinct by construction of L (re-certified through compare_measures).
    """
    alpha = _check_probability_vector(alpha, modulus)
    if any(a == 0 for a in alpha):
        warnings.warn("probability vector has zero entries: the image measure is "
                      "not fully supported; the analysis still applies because the "
                      "code is constant-to-one", stacklevel=2)
    digits = _digits(modulus)
    L = least_cyclic_period(alpha)
    lifts = [BernoulliMeasure(digits, sweep_vector(alpha, k, modulus)) for k in range(L)]
    witnesses = {}
    for i in range(L):
        for j in range(i + 1, L):
            result = compare_measures(lifts[i], lifts[j], 1)
            if not result.distinct:
                raise RuntimeError("sweeps within one period class must be distinct")
            witnesses[f"{i}/{j}"] = {
                "word": ",".join(str(a) for a in result.witness),
                "values": [str(v) for v in result.values],
            }
    multiplicity = modulus // L
    base = PushforwardMeasure(BernoulliMeasure(digits, alpha), difference_code(modulus))
    return LiftReport(
        base=base.describe(),
        degree=modulus,
        lifts=tuple(LiftEntry(m.describe(), multiplicity, m) for m in lifts),
        method="exact",
        details={"least_cyclic_period": L, "distinctness_witnesses": witnesses},
    )


class AlternatingOffsetMeasure(StationaryMeasure):
    """Distribution of x_t + c * (-1)^t (mod N) for x ~ base, averaged over
    the two phases of the alternating sign.  Phase averaging is what makes
    the measure shift-invariant and finitely computable."""

    def __init__(self, base: BernoulliMeasure, offset: int, modulus: int):
        self.base = base
        self.offset = offset % modulus
        self.modulus = modulus
        self.alphabet = base.alphabet

    def _displaced(self, word, phase):
        signs = [1 if (i + phase) % 2 == 0 else -1 for i in range(len(word))]
        return tuple(str((int(a) - sign * self.offset) % self.modulus)
                     for a, sign in zip(word, signs))

    def cylinder_at_phase(self, word, phase) -> Fraction:
        word = _as_word(word)
        return Fraction(1, 2) * (self.base.cylinder(self._displaced(word, phase))
                                 + self.base.cylinder(self._displaced(word, phase + 1)))

    def cylinder(self, word) -> Fraction:
        return self.cylinder_at_phase(word, 0)

    def sample_indices(self, length, rng) -> np.ndarray:
        """x_t + c * (-1)^(t + phase) (mod N), phase drawn first, in x's dtype."""
        phase = int(rng.integers(2))
        base_idx = self.base.sample_indices(length, rng)
        shift = np.where(np.arange(length) % 2 == phase, self.offset, self.modulus - self.offset)
        return ((base_idx + shift) % self.modulus).astype(base_idx.dtype)

    def describe(self):
        return {"type": "alternating-offset", "offset": self.offset,
                "modulus": self.modulus, "base": self.base.describe()}


def sum_code_lift_analysis(alpha, params: MonteCarloParams | None = None,
                           mc_fallback: bool = True) -> LiftReport:
    """Exact lifts of the image of Bernoulli(alpha) under the sum code mod 5.

    Requires alpha_0 > 1/2 (then the three candidate lifts put mass > 1/2
    on the disjoint letter sets {0}, {1,4}, {2,3}, certifying that they are
    pairwise distinct) and that the two-point rotation is not a factor of
    the Bernoulli measure (always true; re-checked).  Multiplicities are
    1, 2, 2.  Below the mass threshold the analyzer falls back to the
    Monte-Carlo classifier with a warning (or raises with mc_fallback off).
    """
    alpha = _check_probability_vector(alpha, 5)
    if any(a == 1 for a in alpha):
        raise DegenerateMeasure(
            "point-mass input: analyze the fixed point with analyze_periodic_lifts")
    digits = _digits(5)
    mu = BernoulliMeasure(digits, alpha)
    if has_two_point_factor(as_markov(mu)):
        raise RuntimeError("two-point rotation unexpectedly a factor of a Bernoulli measure")
    if alpha[0] <= Fraction(1, 2):
        if not mc_fallback:
            raise HypothesisNotMet("alpha_0 <= 1/2: the exact distinctness argument fails")
        warnings.warn("alpha_0 <= 1/2: exact distinctness untested, falling back to "
                      "the Monte-Carlo classifier", stacklevel=2)
        ca = LinearCACode(5, "sum")
        nu = PushforwardMeasure(mu, ca.code)
        return classify_lifts_monte_carlo(ca, nu, params, constant_to_one=True)

    mu1 = AlternatingOffsetMeasure(mu, 1, 5)
    mu2 = AlternatingOffsetMeasure(mu, 2, 5)
    mass = {
        "mu(P)": mu.cylinder(("0",)),
        "mu'(P')": mu1.cylinder(("1",)) + mu1.cylinder(("4",)),
        "mu''(P'')": mu2.cylinder(("2",)) + mu2.cylinder(("3",)),
    }
    if not all(v > Fraction(1, 2) for v in mass.values()):
        raise RuntimeError("mass certificates below 1/2 despite alpha_0 > 1/2")
    witnesses = {}
    for name, (m1, m2) in {"mu/mu'": (mu, mu1), "mu/mu''": (mu, mu2),
                           "mu'/mu''": (mu1, mu2)}.items():
        result = compare_measures(m1, m2, 2)
        if not result.distinct:
            raise RuntimeError("lift measures must be pairwise distinct here")
        witnesses[name] = {"word": ",".join(str(a) for a in result.witness),
                           "values": [str(v) for v in result.values]}

    base = PushforwardMeasure(mu, sum_code(5))
    return LiftReport(
        base=base.describe(),
        degree=5,
        lifts=(LiftEntry(mu.describe(), 1, mu),
               LiftEntry(mu1.describe(), 2, mu1),
               LiftEntry(mu2.describe(), 2, mu2)),
        method="exact",
        details={"mass_certificates": {k: str(v) for k, v in mass.items()},
                 "distinctness_witnesses": witnesses},
    )


def exact_lift_analysis(ca: LinearCACode, alpha) -> LiftReport:
    if ca.family == "difference":
        return difference_lift_analysis(ca.modulus, alpha)
    if ca.modulus != 5:
        raise HypothesisNotMet("exact sum-code analysis is only backed for modulus 5")
    return sum_code_lift_analysis(alpha, mc_fallback=False)


@dataclass(frozen=True)
class CrossValidationReport:
    ca: dict
    degree: int
    exact: LiftReport
    monte_carlo: LiftReport
    matching: tuple                   # (cluster index, exact lift index, max deviation)

    def to_json_dict(self):
        return {
            "code": self.ca,
            "degree": self.degree,
            "exact": self.exact.to_json_dict(),
            "monte_carlo": self.monte_carlo.to_json_dict(),
            "matching": [{"cluster": c, "exact_lift": e, "max_deviation": dev}
                         for c, e, dev in self.matching],
        }


def _cylinder_table(measure, digits, depth):
    """The cylinders of an exact lift, a Bernoulli or an alternating-offset
    measure, on the words over ``digits`` of lengths 1..depth, in the order
    of the concatenated count arrays, as exact Fractions.  Per phase, the
    masses of each length's words extend those of their prefixes by one
    letter's probability at its position; the phases are then averaged."""
    if isinstance(measure, AlternatingOffsetMeasure):
        weight = Fraction(1, 2)
        phases = [[[measure.base.cylinder(measure._displaced((a,), i + phase)) for a in digits]
                   for i in (0, 1)] for phase in (0, 1)]
    else:
        weight, phases = 1, [[[measure.cylinder((a,)) for a in digits]] * 2]
    table, levels = [], [[Fraction(1)]] * len(phases)
    for i in range(depth):
        levels = [[m * q for m in level for q in rows[i % 2]]
                  for level, rows in zip(levels, phases)]
        table += [weight * sum(masses) for masses in zip(*levels)]
    return table


def cross_validate(ca: LinearCACode, alpha,
                   params: MonteCarloParams | None = None,
                   margin_tolerance: float = 0.01) -> CrossValidationReport:
    """Run the generic pipeline on a CA code and check it against the exact
    analyzer: degree, number of lifts, multiplicity multiset, and empirical
    margins within ``margin_tolerance`` of exact cylinder values."""
    if params is None:
        params = MonteCarloParams()
    mismatches = []
    exact = exact_lift_analysis(ca, alpha)      # refuses an invalid alpha first
    nu = PushforwardMeasure(BernoulliMeasure(_digits(ca.modulus), alpha), ca.code)
    mc = classify_lifts_monte_carlo(ca, nu, params, constant_to_one=True)
    if mc.degree != ca.modulus:
        mismatches.append(f"generic degree {mc.degree} != modulus {ca.modulus}")
    if len(mc.lifts) != len(exact.lifts):
        mismatches.append(f"cluster count {len(mc.lifts)} != exact lift count {len(exact.lifts)}")
    if mc.multiplicities() != exact.multiplicities():
        mismatches.append(f"multiplicities {mc.multiplicities()} != exact {exact.multiplicities()}")

    matching = []
    if not mismatches:
        lengths = range(1, params.cylinder_depth + 1)
        cylinders = [np.array([float(m) for m in _cylinder_table(
                         entry.measure, _digits(ca.modulus), params.cylinder_depth)])
                     for entry in exact.lifts]
        used = set()
        for ci, cluster in enumerate(mc.lifts):
            freq = np.concatenate([cluster.measure.frequencies(length) for length in lengths])
            deviations = {ei: float(np.abs(freq - exact_freq).max())
                          for ei, exact_freq in enumerate(cylinders) if ei not in used}
            ei = min(deviations, key=deviations.get)      # the lowest index on a tie
            deviation = deviations[ei]
            if deviation > margin_tolerance or cluster.multiplicity != exact.lifts[ei].multiplicity:
                mismatches.append(
                    f"cluster {ci} matches no exact lift within {margin_tolerance} "
                    f"(best deviation {deviation:.4f})")
            else:
                used.add(ei)
                matching.append((ci, ei, deviation))
    if mismatches:
        raise MismatchReport(mismatches)
    return CrossValidationReport(ca.describe(), mc.degree, exact, mc, tuple(matching))
