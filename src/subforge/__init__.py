"""subforge: build and machine-check the combinatorial subdivision graph
of a desk-scale hyperbolic group presentation."""

from .ball import BallCapExceeded, CayleyBall, TrustRadiusError, enumerate_ball
from .hyperbolicity import DeltaEstimate, compute_delta
from .language import (
    ConeTypeTable,
    Verdict,
    WordAcceptor,
    build_acceptor,
    build_gamma,
    cone_type_classes,
    level_fingerprint,
    verify_cone_lemma,
)
from .pipeline import PipelineResult, RunConfig, run_pipeline
from .presentation import (
    Presentation,
    PresentationError,
    parse_presentation,
    preset,
    verify_small_cancellation,
)
from .qi import estimate_qi_constants, verify_qi_bounds
from .subdivision import (
    EdgeLabel,
    SubdivisionGraph,
    VertexLabel,
    Witness,
    assign_labels,
    build_subdivision_graph,
    geodesically_close,
    verify_axioms,
)
from .words import GeneratorAlphabet, Word, free_reduce

__version__ = "0.1.0"
