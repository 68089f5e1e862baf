"""The public surface: exactly the names the CLI and library users call, and
the README's library example runs against it."""
import pathlib
import re

import numpy as np

import it2frbc

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = {
    "ClassificationResult", "ConfigError", "DataError", "Dataset", "ExperimentConfig",
    "ExperimentReport", "Fuzzifiers", "NormalizationParams", "RuleBase",
    "RunResult", "SoundnessInterval", "SplitSpec", "SubclustParams", "accuracy",
    "build_rulebase", "certainty_degrees", "classify", "classify_batch", "confusion_matrix",
    "emit_report", "export_rules_text", "fit_normalizer", "gen_circular", "gen_irregular",
    "initial_potentials", "load_csv", "load_features_csv", "load_rulebase",
    "normalize_dataset", "run_experiment", "save_csv", "save_rulebase", "split",
    "subtractive_cluster", "train_and_score",
}


def test_all_is_the_public_surface():
    assert len(it2frbc.__all__) == len(set(it2frbc.__all__))
    assert set(it2frbc.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(it2frbc, name) is not None


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    code = "\n".join(line for line in code.splitlines() if not line.startswith("print("))
    scope: dict = {}
    exec(code, scope)
    result = scope["result"]
    assert len(result.soundness) == len(result.scores) == scope["rb"].num_classes
    for iv, score in zip(result.soundness, result.scores):
        assert isinstance(iv, it2frbc.SoundnessInterval)
        assert iv.lower <= score <= iv.upper
    assert result.predicted == int(np.argmax(result.scores))
