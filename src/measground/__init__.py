"""measground: measurement-grounded imaging data tooling.

Names resolve on first access (PEP 562): ``import measground`` loads no
submodule, and ``measground.annotate`` imports only what ``bracketsup``
needs, so code that never touches pixels never imports numpy.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports here, in __all__ order
_EXPORTS = {
    "records": ("CameraMetadata", "CaptureRef", "RenderParams"),
    "capture": ("RawCapture", "ScenePatch", "SyntheticSceneSpec",
                "load_capture_bundle", "save_capture_bundle", "synth_capture"),
    "measxyz": ("MeasXyzImage", "demosaic_bilinear", "meas_xyz_transform", "normalize_mosaic",
                "save_meas_xyz"),
    "isp": ("RenderedRgb", "make_bracket", "quantize", "render_proxy", "save_rendered", "srgb_eotf",
            "srgb_oetf"),
    "lost_signal": ("LostSignalReport", "analyze_render", "invert_render", "lost_signal_residual"),
    "bracketsup": ("CandidateRecord", "InstructionRecord", "TrainingSample", "aggregate", "annotate"),
    "dataset": ("BalanceCaps", "DatasetManifest", "balance", "remove_placeholders", "score_filter"),
    "benchmark": ("BenchmarkExample", "CapabilityDimension", "DisjointnessReport", "holdout_split",
                  "tag_capability", "verify_disjointness"),
    "metrics": ("MetricReport", "bleu", "evaluate_run", "judge", "rouge_l", "tokenize"),
    "probe": ("MetaVector", "ProbeStack", "forward", "grad_check", "serialize_metadata_question"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "formats"}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
