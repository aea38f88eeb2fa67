"""Default act table, example model, and the bundled synthetic survey.

The example model is the package's reference fixture: a 10-item instrument
(7 physical acts, 3 sexual acts) with zero-inflated negative-binomial
marginals calibrated so that roughly 40% of respondents report any act,
and a latent correlation structure in which sexual violence rarely occurs
without physical violence.  The bundled survey CSV under ``data/`` was
generated from exactly this model (categories mode, n = 8000, seed 20260801)
so fitting it should recover these parameters.
"""

from __future__ import annotations

from importlib import resources

import numpy as np

from .ingest import SurveyTable
from .joint import ActSpec, MultiActModel, sample_joint
from .marginals import MarginalParams

EXAMPLE_SEED = 20260801
EXAMPLE_N_ROWS = 8000


def default_acts() -> tuple[ActSpec, ...]:
    """Ten-item act table: physical items 1-7 (1-3 moderate), sexual 8-10."""
    rows = [
        ("slapped you", "physical", "moderate"),
        ("threw something at you that could hurt", "physical", "moderate"),
        ("pushed or shoved you", "physical", "moderate"),
        ("hit you with a fist or something else", "physical", "severe"),
        ("kicked, dragged, or beat you", "physical", "severe"),
        ("choked or burnt you on purpose", "physical", "severe"),
        ("threatened you with a weapon", "physical", "severe"),
        ("physically forced you to have sex", "sexual", "severe"),
        ("coerced sex through threats", "sexual", "severe"),
        ("forced other sexual acts", "sexual", "severe"),
    ]
    return tuple(ActSpec(i + 1, *row) for i, row in enumerate(rows))


def example_model() -> MultiActModel:
    """The documented generating model of the bundled survey (~40% prevalence)."""
    margins = (
        [MarginalParams("zinb", 2.6, 0.77, dispersion=1.2)] * 3
        + [MarginalParams("zinb", 1.8, 0.88, dispersion=1.2)] * 4
        + [MarginalParams("zinb", 2.0, 0.855, dispersion=1.2)] * 3
    )
    sigma = np.full((10, 10), 0.55)
    sigma[:7, :7] = 0.60
    sigma[7:, 7:] = 0.60
    np.fill_diagonal(sigma, 1.0)
    return MultiActModel(default_acts(), tuple(margins), sigma)


def build_example_survey(
    n_rows: int = EXAMPLE_N_ROWS, seed: int = EXAMPLE_SEED
) -> SurveyTable:
    """Generate the bundled categories-mode survey from the example model."""
    from . import coding

    model = example_model()
    counts = sample_joint(model, n_rows, np.random.default_rng(seed))
    return SurveyTable(
        acts=model.acts,
        values=coding.categorize(counts),
        mode="categories",
    )


def example_survey_paths() -> tuple[str, str]:
    """Filesystem paths of the bundled survey CSV and its descriptor."""
    base = resources.files("ctssim") / "data"
    return str(base / "example_survey.csv"), str(base / "example_survey.json")
