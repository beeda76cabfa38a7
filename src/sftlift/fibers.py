"""Measure fibers: ergodic lifts with multiplicities.

Two routes:

* exact, for periodic image orbits — the fiber decomposes into lift
  orbits whose winding numbers are the multiplicities; the canonical lift
  is exact, and a lift of winding w, once checked to hold w·p points over
  the p points of the orbit, has 1/w written as the diagonal mass of its
  relatively independent self-joining;

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
from .graphs import (LabeledGraph, PeriodicOrbit, _reads_within, _tarjan_scc, _unwrap,
                     analyze_graph, scan)
from .codes import _periodic_lifts, compute_degree
from .joinings import _ViabilityWalk, degree_joining_graph
from .measures import COMeasure, EmpiricalDistribution, StationaryMeasure, make_rng

# The longest Monte-Carlo sample accepted.  A run holds about 7 bytes per letter
# at its peak, in the forward walk (6.3 MiB traced for ``ca --family sum`` at T =
# 10**6: viability ids, and rows and scan columns of 2 bytes), so 2**27 take 0.7 GiB.
MAX_SAMPLE_LENGTH = 2**27


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


def analyze_periodic_lifts(code, y: PeriodicOrbit):
    """Exact lift analysis of the CO-measure on a periodic image orbit.

    Returns the lift report together with the canonical-lift decomposition.  The
    lifts are the ``_periodic_lifts`` of the recoding graph, read through ``letters``
    and rolled by ``offset`` as in ``codes._lift_cycles``.  A lift's multiplicity is
    its winding number w; once it is checked to hold w·p points over the p points of
    the orbit, 1/w is written as the diagonal mass of its relatively independent
    self-joining.
    """
    rec, p = _unwrap(code), y.period
    g, letters = rec.graph, np.fromiter(rec.letters, object, len(rec.windows))
    groups = _periodic_lifts(g.label_ids, g.y_symbols, g.successor_index, y)
    entries, diagonal = [], {}
    for winding, ids in groups:
        # the rotations of a lift run over the base rotations in turn, so each
        # base point has winding points over it, with diagonal mass 1/(p winding^2)
        if ids.shape[1] != winding * p:
            raise RuntimeError("fiber points are not equidistributed over the base orbit")
        for word in letters[np.roll(ids, rec.offset, axis=1)].tolist():
            lift_measure = COMeasure(PeriodicOrbit(tuple(word), len(word)), rec.base_alphabet)
            entries.append(LiftEntry(lift_measure.describe(), winding, lift_measure))
            diagonal[",".join(map(str, word))] = str(Fraction(1, winding))
    report = LiftReport(base=COMeasure(y, g.y_symbols).describe(),
                        degree=sum(w * len(ids) for w, ids in groups), lifts=tuple(entries),
                        method="exact", details={"diagonal_mass": diagonal, "base_period": p})
    return report, CanonicalLiftDecomposition(report.lifts, report.degree)


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
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")

    @property
    def tau(self):
        if self.tolerance is not None:
            return self.tolerance
        return 5.0 / math.sqrt(self.sample_length)


def is_fully_supported_on_image(nu: StationaryMeasure, g: LabeledGraph) -> bool:
    """Whether supp(nu) is the whole image shift of g: ``_reads_within`` both ways
    between the graph of positive transitions of nu's hidden chain, each state
    labelled by its letter, and g's essential part.  Every chain state has positive
    mass, so every path of that graph has positive mass."""
    chain, ess = nu.hidden_chain(), analyze_graph(g).essential
    edges = [(z, t) for z, row in enumerate(chain.rows) for t in row]
    support = LabeledGraph(range(len(chain.letter)), edges,
                           enumerate(map(nu.alphabet.__getitem__, chain.letter)), nu.alphabet)
    if not _reads_within(support, ess.forward_automaton, ess.y_symbols):
        raise NotFullySupported("measure is not supported inside the image shift")
    return _reads_within(ess, support.forward_automaton, nu.alphabet)


def _single_linkage(dist, tau):
    """The connected components of the graph joining i and j when
    dist[i, j] <= tau, for a symmetric matrix: members ascending, largest
    component first, ties by first member."""
    close = [np.flatnonzero(row <= tau).tolist() for row in dist]
    return sorted((sorted(c) for c in _tarjan_scc(range(len(dist)), close)),
                  key=lambda c: (-len(c), c[0]))


def _image_sample(nu, g, length, seed):
    """A sample of nu as indices into g's image alphabet: the sample itself when
    nu's letters are g's first ones, else one lookup by blocks (``scan`` of one row)."""
    sample = nu.sample_indices(length, make_rng(seed))
    to_image = np.array([g.y_symbols.index(a) for a in nu.alphabet],
                        np.min_scalar_type(len(g.y_symbols) - 1))
    if np.array_equal(to_image, np.arange(len(to_image))):
        return sample
    scan(to_image[None], sample, 0, out := np.empty(length, to_image.dtype))
    return out


def classify_lifts_monte_carlo(code, nu: StationaryMeasure,
                               params: MonteCarloParams | None = None, *,
                               constant_to_one: bool = False) -> LiftReport:
    """Statistical lift classification over a fully supported image measure.

    Samples an image window, threads a bi-viable joining-graph word over it
    (burn-in of one joining-symbol-count dropped at both ends), counts its
    windows once for every coordinate's cylinders over the domain letters
    (from the code's recoding) of the essential symbols, and reports
    single-linkage clusters as lifts with multiplicity = cluster size.  Non-fully-supported
    inputs are refused unless the code is known constant-to-one, because the
    clustering guarantees fail there.  More cylinders than letters are
    refused first, a sample too short for the burn-in before it is drawn.
    """
    if params is None:
        params = MonteCarloParams()
    g = (rec := _unwrap(code)).graph
    used = {a for a, alive in zip(rec.letters, g.essential_mask.tolist()) if alive}
    letter_alphabet = tuple(a for a in rec.base_alphabet if a in used)
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
    burn = len(lam.ids)
    if T <= 2 * burn + depth:
        raise InputError("sample_length too short for burn-in and cylinder depth")

    walker = _ViabilityWalk(g, lam.ids, lam.src, lam.dst)
    # each row's letter index per coordinate; the joining graph holds essential symbols only
    letter = {a: i for i, a in enumerate(letter_alphabet)}
    letters = np.array([letter.get(a, 0) for a in rec.letters], np.min_scalar_type(k - 1))[lam.ids]
    viable, kept = walker.viability_ids(_image_sample(nu, g, T, params.seed)), slice(burn, T - burn)
    distributions = EmpiricalDistribution.from_walk(      # the rows are a narrow copy of viable
        walker.forward, viable[kept], walker.walk(viable)[kept], letters, letter_alphabet, depth)

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
