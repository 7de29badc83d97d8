"""Video state-change capture toolkit.

Segment and window sampling, point-of-no-return localization with a
confidence filter and positional prior, score fusion, metrics, and a
synthetic simulator for end-to-end verification at desk scale.

Every public name is exported here, but its module is imported only
when the name is first read (PEP 562), so ``import pnrkit`` is cheap.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "errors": "BoundsError ClipTooShortError ConflictError CoverageError DomainError "
    "EmptyInputError NegativeSpaceEmpty ParseError PnrKitError ValidationError",
    "fusion": "fuse_oscc fuse_pnr",
    "ingest": "Dataset DatasetStats bin_index build_dataset dataset_stats emit_annotations "
    "emit_oscc_scores emit_pnr_scores emit_predictions parse_annotations parse_oscc_scores "
    "parse_pnr_scores parse_predictions render_stats stats_plot_data write_text_atomic",
    "localization": "SelectionConfig baseline_center baseline_fraction oracle_error "
    "score_dense_windows select_pnr",
    "metrics": "BinError MetricsReport error_plot_data oscc_accuracy per_position_error "
    "pnr_mae render_report report_to_json",
    "model": "Clip FrameWindow PnrAnnotation PnrPrediction ScoredWindow ScoreSeries "
    "frame_to_fraction fraction_to_frame round_half_up window_center_fraction "
    "window_center_frame window_center_time",
    "sampling": "SamplerConfig WindowingConfig dense_windows negative_windows "
    "positive_window tsn_sample valid_negative_starts",
    "sim": "ScorerNoiseModel SimConfig SimSettings gen_dataset parse_sim_config "
    "simulate_oscc simulate_scores",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
