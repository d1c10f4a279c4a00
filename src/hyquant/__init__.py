"""hyquant: post-training quantization for hybrid conv+attention networks."""

from .bridge import ReconstructionUnit, resolve_bridge_blocks, units_for
from .calib import (CalibCache, CalibOptions, SearchSpace, UnitDecision,
                    calibrate, generate_candidates, objective,
                    pass1_cache_fp, pass2_cache_gradients, search_unit)
from .graph import (Graph, LayerSpec, Site, check_site_coverage, forward_fp,
                    forward_quant, load_manifest, save_manifest)
from .quant import (OverflowReport, QuantParams, detect_zero_point_overflow,
                    fit_minmax, quantize_dequantize)
from .tensor import Tape, Tensor, backward, load_tensor, save_tensor
from .zoo import FIXTURES, FixtureSpec, build_fixture

__version__ = "0.1.0"

__all__ = [
    "CalibCache", "CalibOptions", "FIXTURES", "FixtureSpec",
    "Graph", "LayerSpec", "OverflowReport", "QuantParams", "ReconstructionUnit",
    "SearchSpace", "Site", "Tape", "Tensor", "UnitDecision", "backward",
    "build_fixture", "calibrate", "check_site_coverage",
    "detect_zero_point_overflow", "fit_minmax", "forward_fp", "forward_quant",
    "generate_candidates", "load_manifest", "load_tensor", "objective",
    "pass1_cache_fp", "pass2_cache_gradients",
    "quantize_dequantize", "resolve_bridge_blocks", "save_manifest",
    "save_tensor", "search_unit", "units_for",
]
