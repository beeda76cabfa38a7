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
from .graphs import OneBlockRecoding, SlidingBlockCode
from .fibers import LiftEntry, LiftReport, MonteCarloParams, classify_lifts_monte_carlo
from .measures import (BernoulliMeasure, HiddenChain, PushforwardMeasure, StationaryMeasure,
                       compare_measures, has_two_point_factor, parse_fraction)

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


def _distinctness_witnesses(pairs, depth):
    """Per named pair of lift measures, the ``compare_measures`` word of at most
    ``depth`` letters that tells them apart, with their values on it."""
    witnesses = {}
    for name, (m1, m2) in pairs.items():
        result = compare_measures(m1, m2, depth)
        if not result.distinct:
            raise RuntimeError(f"lift measures {name} must be distinct")
        witnesses[name] = {"word": ",".join(str(a) for a in result.witness),
                           "values": [str(v) for v in result.values]}
    return witnesses


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
    witnesses = _distinctness_witnesses(
        {f"{i}/{j}": (lifts[i], lifts[j]) for i in range(L) for j in range(i + 1, L)}, 1)
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

    def _hidden_chain(self):
        """(phase, base state) pairs, numbered phase * n + z: phase 0 adds the
        offset to its base letter, phase 1 subtracts it, and each step flips
        the phase as it moves the base state."""
        base, idx, shift = self.base.hidden_chain(), self._index(), (self.offset, -self.offset)
        n = len(base.stationary)
        return HiddenChain(
            tuple(p / 2 for p in base.stationary) * 2,
            tuple({(1 - phase) * n + t: p for t, p in row.items()}
                  for phase in (0, 1) for row in base.rows),
            tuple(idx[str((int(self.alphabet[e]) + shift[phase]) % self.modulus)]
                  for phase in (0, 1) for e in base.letter))

    def sample_indices(self, length, rng) -> np.ndarray:
        """x_t + c * (-1)^(t + phase) (mod N), phase drawn first, in x's dtype, in place."""
        phase = int(rng.integers(2))
        base_idx = self.base.sample_indices(length, rng)
        out = base_idx.astype(np.min_scalar_type(2 * self.modulus), copy=False)
        out[phase::2] += self.offset
        out[1 - phase::2] += self.modulus - self.offset
        return np.remainder(out, self.modulus, out=out).astype(base_idx.dtype, copy=False)

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
    if has_two_point_factor(mu):
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
    witnesses = _distinctness_witnesses(
        {"mu/mu'": (mu, mu1), "mu/mu''": (mu, mu2), "mu'/mu''": (mu1, mu2)}, 2)

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
    """The cylinders of an exact lift on the words over ``digits`` of
    lengths 1..depth, in the order of the concatenated count arrays, as
    exact Fractions: ``cylinder``'s forward recursion run once over the
    prefix tree of the words, each word extending its prefix's masses."""
    chain, idx = measure.hidden_chain(), measure._index()
    table, level = [], [None]
    for _ in range(depth):
        level = [chain.forward(masses, idx.get(a, -1)) for masses in level for a in digits]
        table += [sum(masses.values(), Fraction(0)) for masses in level]
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
