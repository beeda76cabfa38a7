"""Finite-to-one factor codes on shifts of finite type: degree computation,
degree joinings, and the ergodic-lift structure of measure fibers."""

from .errors import (DegenerateMeasure, EmptyAfterTrim, FiberInfinite,
                     HypothesisNotMet, InfiniteToOne, InputError, MismatchReport,
                     NoPath, NotErgodic, NotFullySupported, NotInImage,
                     NotIrreducible, PreconditionError, ProjectionNotOnto,
                     UnsupportedFiber)
from .graphs import (LabeledGraph, OneBlockRecoding, PeriodicOrbit,
                     RightResolvingPresentation, SlidingBlockCode,
                     StructureReport, analyze_graph, determinize,
                     entropy, full_shift, recode_to_one_block, to_dot)
from .codes import (DegreeReport, PhasedFiberDecomposition, compute_degree,
                    fiber_product, is_bi_closing, is_finite_to_one,
                    is_left_closing, is_right_closing, periodic_fiber,
                    periodic_fibers, preimage_words)
from .joinings import (DegreeJoiningGraph, PeriodicJoiningReport,
                       degree_joining_graph, enumerate_periodic_degree_joinings,
                       lambda_path_over)
from .measures import (BernoulliMeasure, COMeasure, ComparisonResult,
                       EmpiricalDistribution, MarkovMeasure,
                       PushforwardMeasure, StationaryMeasure, as_markov,
                       compare_measures, has_two_point_factor, measure_from_json_dict,
                       pushforward_cylinder, sample_path)
from .fibers import (CanonicalLiftDecomposition, LiftEntry, LiftReport,
                     MonteCarloParams, analyze_periodic_lifts,
                     classify_lifts_monte_carlo, is_fully_supported_on_image)
from .ca import (AlternatingOffsetMeasure, CrossValidationReport, LinearCACode,
                 cross_validate, difference_code, difference_lift_analysis,
                 least_cyclic_period, sum_code, sum_code_lift_analysis,
                 sweep_vector)

__version__ = "0.1.0"
