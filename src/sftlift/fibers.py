"""Measure fibers: ergodic lifts with multiplicities.

Two routes:

* exact, for periodic image orbits — the fiber decomposes into lift
  orbits whose winding numbers are the multiplicities; the canonical lift
  and the relatively-independent-self-joining diagonal masses are computed
  in exact rationals;

* statistical, for fully supported image measures (hidden Markov
  chains, pushforwards included) — sample a long image window, thread the
  joining graph over it, and cluster the per-coordinate empirical cylinder
  statistics.  Almost every fiber point is generic for one of the lifts,
  with multiplicities given by how many coordinates share a cluster, so
  cluster sizes estimate multiplicities.  This path is an estimator and
  is labeled as such in its report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import InputError, NotFullySupported
from .graphs import LabeledGraph, OneBlockRecoding, PeriodicOrbit, _tarjan_scc, determinize
from .codes import compute_degree, periodic_fiber
from .joinings import _ViabilityWalk, degree_joining_graph
from .measures import COMeasure, EmpiricalDistribution, StationaryMeasure, make_rng

# The longest Monte-Carlo sample accepted.  A run holds about 22 bytes per
# letter at its peak (20.6 MiB traced for ``ca --family sum`` at T = 10**6),
# so 2**26 letters take about 1.4 GiB.
MAX_SAMPLE_LENGTH = 2**26


@dataclass(frozen=True)
class LiftEntry:
    descriptor: dict
    multiplicity: int
    measure: object = None            # the exact measure object when available

    def to_json_dict(self):
        return {"measure": self.descriptor, "multiplicity": self.multiplicity}


@dataclass(frozen=True)
class LiftReport:
    """The measure fiber over one image measure: lifts with multiplicities."""

    base: dict
    degree: int
    lifts: tuple
    method: str                       # "exact" | "monte-carlo"
    details: dict = field(default_factory=dict)

    def multiplicities(self):
        return sorted(entry.multiplicity for entry in self.lifts)

    def to_json_dict(self):
        return {
            "base_measure": self.base,
            "degree": self.degree,
            "method": self.method,
            "lifts": [entry.to_json_dict() for entry in self.lifts],
            "details": self.details,
        }


@dataclass(frozen=True)
class CanonicalLiftDecomposition:
    """Ergodic decomposition of the uniform-fiber lift: the lift of
    multiplicity m_i has weight m_i / d."""

    lifts: tuple                      # the report's LiftEntry per component
    degree: int                       # d

    def __post_init__(self):
        if sum(e.multiplicity for e in self.lifts) != self.degree:
            raise ValueError("canonical lift weights must sum to 1 exactly")

    @property
    def components(self):
        """(measure, Fraction weight) per component."""
        return tuple((e.measure, Fraction(e.multiplicity, self.degree)) for e in self.lifts)

    @property
    def is_ergodic(self):
        return len(self.lifts) == 1

    def to_json_dict(self):
        return {
            "components": [{"measure": e.descriptor,
                            "weight": str(Fraction(e.multiplicity, self.degree))}
                           for e in self.lifts],
            "is_ergodic": self.is_ergodic,
        }


def _unwrap(code):
    if isinstance(code, OneBlockRecoding):
        return code.graph, code
    if isinstance(code, LabeledGraph):
        return code, None
    recoding = getattr(code, "recoding", None)
    if recoding is not None:
        return recoding.graph, recoding
    raise TypeError(f"expected a labeled graph or a recoding, got {type(code).__name__}")


def _lift_orbit_alphabet(g, recoding):
    return recoding.base_alphabet if recoding is not None else g.x_symbols


def analyze_periodic_lifts(code, y: PeriodicOrbit):
    """Exact lift analysis of the CO-measure on a periodic image orbit.

    Returns the lift report together with the canonical-lift decomposition.
    Each lift's multiplicity is its winding number; the report additionally
    carries the exactly computed diagonal mass of each lift's relatively
    independent self-joining, which must equal 1/multiplicity.
    """
    g, recoding = _unwrap(code)
    fiber, p = periodic_fiber(g, y), y.period
    entries, diagonal = [], {}
    for orbit, winding in fiber.lift_orbits:
        # the rotations of a lift run over the base rotations in turn, so each
        # base point has winding points over it, with diagonal mass 1/(p winding^2)
        if orbit.period != winding * p:
            raise RuntimeError("fiber points are not equidistributed over the base orbit")
        reported = recoding.base_orbit(orbit) if recoding is not None else orbit
        lift_measure = COMeasure(reported, _lift_orbit_alphabet(g, recoding))
        entries.append(LiftEntry(lift_measure.describe(), winding, lift_measure))
        diagonal[",".join(str(a) for a in reported.primitive_word)] = str(Fraction(1, winding))
    report = LiftReport(base=COMeasure(y, g.y_symbols).describe(), degree=fiber.fiber_size,
                        lifts=tuple(entries), method="exact",
                        details={"diagonal_mass": diagonal, "base_period": p})
    return report, CanonicalLiftDecomposition(report.lifts, fiber.fiber_size)


@dataclass(frozen=True)
class MonteCarloParams:
    sample_length: int = 10**6
    cylinder_depth: int = 3
    tolerance: float | None = None    # defaults to 5 / sqrt(sample_length)
    seed: int = 0

    def __post_init__(self):
        if self.sample_length < 1:
            raise InputError(f"sample_length must be >= 1, got {self.sample_length}")
        if self.sample_length > MAX_SAMPLE_LENGTH:
            raise InputError(f"sample_length {self.sample_length} is more than the cap "
                             f"MAX_SAMPLE_LENGTH = {MAX_SAMPLE_LENGTH}")
        if self.cylinder_depth < 1:
            raise InputError(f"cylinder_depth must be >= 1, got {self.cylinder_depth}")
        if self.tolerance is not None and not self.tolerance > 0:
            raise InputError(f"tolerance must be > 0, got {self.tolerance}")

    @property
    def tau(self):
        if self.tolerance is not None:
            return self.tolerance
        return 5.0 / math.sqrt(self.sample_length)


def support_presentation(nu: StationaryMeasure):
    """Right-resolving presentation of the support of a measure: the subset
    construction of its hidden chain's graph of positive transitions, each
    state labelled by its letter.  Every chain state has positive mass, so
    every path of that graph has positive mass."""
    chain = nu.hidden_chain()
    states = range(len(chain.letter))
    edges = {(z, t) for z in states for t in chain.rows[z]}
    label = {z: nu.alphabet[chain.letter[z]] for z in states}
    return determinize(LabeledGraph(states, edges, label, nu.alphabet))


def is_fully_supported_on_image(nu: StationaryMeasure, g: LabeledGraph) -> bool:
    """Whether supp(nu) is the whole image shift of g (exact language check
    between right-resolving presentations)."""
    image = determinize(g)
    support = support_presentation(nu)
    if not support.language_subset_of(image):
        raise NotFullySupported("measure is not supported inside the image shift")
    return image.language_subset_of(support)


def _single_linkage(dist, tau):
    """The connected components of the graph joining i and j when
    dist[i, j] <= tau, for a symmetric matrix: members ascending, largest
    component first, ties by first member."""
    close = [np.flatnonzero(row <= tau).tolist() for row in dist]
    return sorted((sorted(c) for c in _tarjan_scc(range(len(dist)), close)),
                  key=lambda c: (-len(c), c[0]))


def classify_lifts_monte_carlo(code, nu: StationaryMeasure,
                               params: MonteCarloParams | None = None, *,
                               constant_to_one: bool = False) -> LiftReport:
    """Statistical lift classification over a fully supported image measure.

    Samples an image window, threads a bi-viable joining-graph word over it
    (burn-in of one joining-symbol-count dropped at both ends), accumulates
    per-coordinate cylinder statistics, and reports single-linkage clusters
    as lifts with multiplicity = cluster size.  Non-fully-supported inputs
    are refused unless the code is known constant-to-one, because the
    clustering guarantees fail there.  More cylinders than letters are refused first.
    """
    if params is None:
        params = MonteCarloParams()
    g, recoding = _unwrap(code)
    letter_alphabet = tuple(_lift_orbit_alphabet(g, recoding))
    k, depth, T = len(letter_alphabet), params.cylinder_depth, params.sample_length
    if k ** min(depth, int(T).bit_length()) > T:
        raise InputError(f"cylinder_depth {depth} asks for {k}**{depth} cylinders, "
                         f"more than sample_length {T}")
    constant_to_one = constant_to_one or bool(getattr(code, "constant_to_one", False))
    d = compute_degree(g).degree

    if not set(nu.alphabet) <= set(g.y_symbols):
        raise InputError("image measure alphabet is not contained in the code's image alphabet")
    if not is_fully_supported_on_image(nu, g):
        if not constant_to_one:
            raise NotFullySupported(
                "image measure is not fully supported and the code is not known "
                "constant-to-one; refusing to classify")

    lam = degree_joining_graph(g, degree=d)
    burn = len(lam.graph.x_symbols)
    if T <= 2 * burn + depth:
        raise InputError("sample_length too short for burn-in and cylinder depth")

    rng = make_rng(params.seed)
    to_image = np.array([lam.graph.y_symbols.index(a) for a in nu.alphabet],
                        dtype=np.min_scalar_type(len(lam.graph.y_symbols) - 1))
    y_idx = to_image.take(nu.sample_indices(T, rng))

    walker = _ViabilityWalk(lam.graph)
    path_idx = walker.walk(walker.viability_ids(y_idx))
    path_idx = path_idx[burn:len(path_idx) - burn]

    letter = {a: i for i, a in enumerate(letter_alphabet)}
    distributions = []
    for i in range(d):
        table = np.array([letter[recoding.base_letter(sym[i]) if recoding is not None else sym[i]]
                          for sym in lam.graph.x_symbols], dtype=np.min_scalar_type(k - 1))
        distributions.append(EmpiricalDistribution.from_indices(
            table.take(path_idx), letter_alphabet, depth))

    dist = np.array([[a.distance(b) for b in distributions] for a in distributions])
    clusters = _single_linkage(dist, params.tau)

    entries = []
    cluster_details = []
    for members in clusters:
        merged = reduce(EmpiricalDistribution.merged_with, [distributions[m] for m in members])
        descriptor = {"type": "empirical-cluster",
                      "coordinates": members,
                      "frequencies": merged.to_json_dict(max_length=1)["frequencies"]}
        entries.append(LiftEntry(descriptor, len(members), merged))
        cluster_details.append({"coordinates": members,
                                "cylinders": merged.to_json_dict(max_length=params.cylinder_depth)})

    return LiftReport(
        base=nu.describe(),
        degree=d,
        lifts=tuple(entries),
        method="monte-carlo",
        details={
            "sample_length": T,
            "cylinder_depth": params.cylinder_depth,
            "tolerance": params.tau,
            "seed": params.seed,
            "burn_in": burn,
            "clusters": cluster_details,
        },
    )
