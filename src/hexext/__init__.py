"""hexext: exact homological algebra over Z and Z/m.

Decides when a 3x3 grid of short exact sequences admits a middle object,
constructs the middle object and compatible isomorphisms between solutions,
and applies the machinery to abstract hexagon diagrams.
"""

from .rings import RingSpec, ZZ, Zmod
from .linalg import ExactMatrix, solve_linear, kernel_columns
from .modules import (
    ModuleMorphism,
    PresentedModule,
    ShortExactSequence,
    direct_sum,
    exactness_report,
    hom,
    make_ses,
    morphism_image,
    morphism_kernel,
    pullback,
    split_ses,
)
from .ext import (
    ExtClass,
    ExtModule,
    FreeResolution,
    class_of_ses,
    ext_module,
    free_resolution,
    restriction,
    ses_of_class,
)
from .diagram import (
    Diagram3x3,
    DiagramExtension,
    ObstructionReport,
    build_Y,
    check_uniqueness,
    compatible_isomorphism,
    enumerate_extensions,
    extend_diagram,
    obstruction,
    validate_diagram1,
    validate_extension,
)
from .hexagon import (
    HexagonFrame,
    SolvedHexagon,
    fold_frame,
    hexagon_compatible_iso,
    solve_hexagon,
    validate_frame,
    verify_hexagon,
)
from .oracle import (
    EnumerationBudget,
    brute_center_exists,
    brute_equivalent,
    brute_ext1,
    brute_injective,
    enumerate_morphisms,
)
from .document import DocumentModel, ParseError, SemanticError, parse, serialize

__all__ = [
    "RingSpec", "ZZ", "Zmod",
    "ExactMatrix", "solve_linear", "kernel_columns",
    "PresentedModule", "ModuleMorphism", "ShortExactSequence",
    "hom", "morphism_kernel", "morphism_image",
    "direct_sum", "pullback", "exactness_report", "make_ses",
    "split_ses",
    "FreeResolution", "ExtModule", "ExtClass",
    "free_resolution", "ext_module", "class_of_ses", "ses_of_class",
    "restriction",
    "Diagram3x3", "DiagramExtension", "ObstructionReport",
    "validate_diagram1", "obstruction", "build_Y", "extend_diagram",
    "enumerate_extensions", "validate_extension", "check_uniqueness",
    "compatible_isomorphism",
    "HexagonFrame", "SolvedHexagon", "fold_frame", "solve_hexagon",
    "verify_hexagon", "hexagon_compatible_iso", "validate_frame",
    "EnumerationBudget", "enumerate_morphisms", "brute_ext1",
    "brute_equivalent", "brute_injective", "brute_center_exists",
    "DocumentModel", "parse", "serialize", "ParseError", "SemanticError",
]

__version__ = "0.1.0"
