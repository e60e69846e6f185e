"""fakescope: a fake-follower detection toolkit.

Rule-based detectors, a cost-classed feature catalog, from-scratch
classifiers with cross-validation and pruning, an API crawl-budget model,
and information-fusion feature-sensitivity analysis, runnable end to end
on ingested corpora or deterministic synthetic data.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
