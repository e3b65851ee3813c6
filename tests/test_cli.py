import pytest

from pairselect.cli import main
from pairselect.config import load_config
from pairselect.data import InstrumentSource, SyntheticSpec
from pairselect.errors import ConfigError
from pairselect.features import FeatureParams
from pairselect.pipeline import RunConfig
from pairselect.splits import DEFAULT_TEST_FRAC, DEFAULT_VAL_FRAC

CONFIG_TEMPLATE = """\
seed: 17
out_dir: out
instruments:
  - symbol: TREND0
    synthetic: {{kind: persistent_sign, length: {length}, persistence: 0.7, seed: 1}}
  - symbol: TREND1
    synthetic: {{kind: persistent_sign, length: {length}, persistence: 0.7, seed: 2}}
  - symbol: NOISE0
    synthetic: {{kind: random_walk, length: {length}, seed: 3}}
  - symbol: NOISE1
    synthetic: {{kind: random_walk, length: {length}, seed: 4}}
models: [logistic, decision_tree, gaussian_nb, kneighbors]
selection_mode: profitable_list
short_on_down: true
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "run.yml"
    path.write_text(CONFIG_TEMPLATE.format(length=600))
    return path


def test_load_config_defaults_and_overrides(config_file, tmp_path):
    config = load_config(config_file)
    assert config.seed == 17
    assert config.out_dir == tmp_path / "out"
    assert config.store_path == tmp_path / "out" / "record_store.csv"
    assert config.model_kinds == ("logistic", "decision_tree", "gaussian_nb", "kneighbors")
    override = load_config(config_file, seed_override=99, out_override=tmp_path / "elsewhere")
    assert override.seed == 99
    assert override.store_path == tmp_path / "elsewhere" / "record_store.csv"


def test_load_config_requires_seed(tmp_path):
    path = tmp_path / "no_seed.yml"
    path.write_text(
        "instruments:\n  - symbol: A\n    synthetic: {kind: random_walk, length: 200, seed: 1}\n"
    )
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    config = load_config(path, seed_override=5)
    assert config.seed == 5


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.yml"
    path.write_text("seed: 1\ntypo_key: true\ninstruments:\n  - symbol: A\n    synthetic: {kind: random_walk, length: 200}\n")
    with pytest.raises(ConfigError, match="typo_key"):
        load_config(path)


MINIMAL = "seed: 1\ninstruments:\n  - symbol: A\n    synthetic: {kind: random_walk, length: 200}\n"


def test_load_config_minimal_yaml_takes_declared_defaults(tmp_path):
    path = tmp_path / "minimal.yml"
    path.write_text(MINIMAL)
    config = load_config(path)
    declared = RunConfig(sources=config.sources, seed=1, out_dir=".", store_path="s.csv")
    assert config.features == FeatureParams()
    assert config.test_frac == DEFAULT_TEST_FRAC
    assert config.val_frac == DEFAULT_VAL_FRAC
    for name in ("selection_mode", "short_on_down", "windows", "model_kinds"):
        assert getattr(config, name) == getattr(declared, name), name


@pytest.mark.parametrize(
    "text, key",
    [
        (MINIMAL + "features: {sma: 20}\n", "sma"),
        (MINIMAL + "split: {test_fraction: 0.2}\n", "test_fraction"),
        (MINIMAL.replace("length: 200", "length: 200, volatility: 2.0"), "volatility"),
    ],
    ids=["features", "split", "synthetic"],
)
def test_load_config_unknown_section_key_is_named(tmp_path, text, key):
    path = tmp_path / "bad.yml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"'{key}'"):
        load_config(path)


def test_load_config_short_on_down_must_be_a_boolean(tmp_path):
    path = tmp_path / "quoted.yml"
    path.write_text(MINIMAL + 'short_on_down: "false"\n')
    with pytest.raises(ConfigError, match="short_on_down"):
        load_config(path)
    path.write_text(MINIMAL + "short_on_down: false\n")
    assert load_config(path).short_on_down is False


@pytest.mark.parametrize(
    "text, key",
    [
        (MINIMAL.replace("seed: 1", "seed: 1.9"), "seed"),
        (MINIMAL + "windows: 2.7\n", "windows"),
        (MINIMAL + "windows: true\n", "windows"),
        (MINIMAL + "features: {sma_period: 14.9}\n", "sma_period"),
        (MINIMAL.replace("length: 200", "length: 200.5"), "length"),
        (MINIMAL.replace("length: 200", 'length: "200"'), "length"),
    ],
    ids=[
        "seed-fraction",
        "windows-fraction",
        "windows-bool",
        "period-fraction",
        "length-fraction",
        "length-string",
    ],
)
def test_load_config_integer_field_refuses_non_integers(tmp_path, text, key):
    path = tmp_path / "ints.yml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"'{key}' must be an integer"):
        load_config(path)


def test_load_config_float_field_takes_an_integer(tmp_path):
    path = tmp_path / "floats.yml"
    path.write_text(MINIMAL.replace("length: 200", "length: 200, volatility_pct: 2"))
    volatility = load_config(path).sources[0].synthetic.volatility_pct
    assert volatility == 2.0 and type(volatility) is float


def test_load_config_empty_model_list_enables_nothing(tmp_path):
    path = tmp_path / "no_models.yml"
    path.write_text(MINIMAL + "models: []\n")
    with pytest.raises(ConfigError, match="enables no model kinds"):
        load_config(path)


@pytest.mark.parametrize(
    "features, says",
    [
        ("{sma_period: 0}", "sma_period must be >= 1, got 0"),
        ("{macd_signal: -2}", "macd_signal must be >= 1, got -2"),
        ("{macd_fast: 40}", "macd_fast (40) must not exceed macd_slow (26)"),
    ],
    ids=["sma-period-zero", "signal-negative", "fast-above-slow"],
)
def test_load_config_bad_feature_period_is_named(tmp_path, features, says):
    path = tmp_path / "features.yml"
    path.write_text(MINIMAL + f"features: {features}\n")
    with pytest.raises(ConfigError) as refused:
        load_config(path)
    assert says in str(refused.value)


SOURCE = InstrumentSource("A", synthetic=SyntheticSpec("random_walk", 200))


@pytest.mark.parametrize(
    "text, build",
    [
        (MINIMAL + "windows: 0\n", lambda: RunConfig((SOURCE,), 1, ".", "s.csv", windows=0)),
        ("seed: 1\ninstruments:\n  - symbol: A\n", lambda: InstrumentSource("A")),
        (MINIMAL.replace("length: 200", "length: 50"), lambda: SyntheticSpec("random_walk", 50)),
        (MINIMAL + "features: {sma_period: 0}\n", lambda: FeatureParams(sma_period=0)),
    ],
    ids=["RunConfig", "InstrumentSource", "SyntheticSpec", "FeatureParams"],
)
def test_settings_built_in_code_are_refused_like_yaml(tmp_path, text, build):
    path = tmp_path / "bad.yml"
    path.write_text(text)
    with pytest.raises(ConfigError) as from_yaml:
        load_config(path)
    with pytest.raises(ConfigError) as from_code:
        build()
    assert str(from_code.value) == str(from_yaml.value)


def test_cli_synth_writes_csvs(config_file, tmp_path, capsys):
    assert main(["synth", "--config", str(config_file)]) == 0
    written = sorted(p.name for p in (tmp_path / "out").glob("*.csv"))
    assert written == ["NOISE0.csv", "NOISE1.csv", "TREND0.csv", "TREND1.csv"]
    head = (tmp_path / "out" / "TREND0.csv").read_text().split("\n")[0]
    assert head == "Date,Open,High,Low,Close,Adj Close,Volume"


def test_cli_run_emits_reports(config_file, tmp_path, capsys):
    assert main(["run", "--config", str(config_file)]) == 0
    out = tmp_path / "out"
    for name in ("records.csv", "selection.csv", "summary.txt", "record_store.csv"):
        assert (out / name).exists(), name
    assert "run_id: 17-w01" in capsys.readouterr().out


def test_cli_walkforward_window_dirs(config_file, tmp_path, capsys):
    assert main(["walkforward", "--config", str(config_file), "--windows", "2"]) == 0
    out = tmp_path / "out"
    assert (out / "window_01" / "records.csv").exists()
    assert (out / "window_02" / "records.csv").exists()


def test_cli_predict_next_prints_directions(config_file, tmp_path, capsys):
    assert main(["walkforward", "--config", str(config_file), "--windows", "2"]) == 0
    capsys.readouterr()
    assert main(["predict-next", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert out.strip()
    for line in out.strip().split("\n"):
        if line == "no pairs selected (no trade)":
            continue
        assert ("\tUP\t" in line) or ("\tDOWN\t" in line)


def test_cli_report_reemits_from_store(config_file, tmp_path, capsys):
    assert main(["run", "--config", str(config_file)]) == 0
    capsys.readouterr()
    report_dir = tmp_path / "fresh"
    assert main([
        "report", "--config", str(config_file), "--out", str(report_dir),
        "--store", str(tmp_path / "out" / "record_store.csv"),
    ]) == 0
    assert (report_dir / "records.csv").read_text().startswith("dataset,model,")


def test_cli_exit_codes(tmp_path, config_file):
    assert main(["run", "--config", str(tmp_path / "missing.yml")]) == 2
    # empty store -> config error for report
    assert main(["report", "--config", str(config_file)]) == 2


def test_cli_misspelled_grid_axis_is_a_config_error(tmp_path, caplog):
    path = tmp_path / "typo.yml"
    path.write_text(CONFIG_TEMPLATE.format(length=600) + "grids: {logistic: {Cee: [0.1]}}\n")
    assert main(["run", "--config", str(path)]) == 2
    assert any("'Cee'" in m and "logistic" in m for m in caplog.messages)


@pytest.mark.parametrize(
    "grids, says",
    [
        ("{logistic: [0.1]}", "'logistic' must map each parameter to a list"),
        ("{logistic: {C: 0.1}}", "'logistic' must map each parameter to a list"),
        ("{mlp: {alpha: [0.001]}}", "'mlp', which is not enabled"),
    ],
    ids=["grid-not-a-mapping", "axis-not-a-list", "kind-not-enabled"],
)
def test_cli_malformed_grid_is_a_config_error(tmp_path, caplog, grids, says):
    path = tmp_path / "grid.yml"
    path.write_text(CONFIG_TEMPLATE.format(length=600) + f"grids: {grids}\n")
    assert main(["run", "--config", str(path)]) == 2
    assert any(says in m for m in caplog.messages)


def test_cli_unknown_instrument_key_is_a_config_error(tmp_path, caplog):
    path = tmp_path / "typo.yml"
    path.write_text(
        "seed: 1\ninstruments:\n  - symbol: A\n    csvpath: a.csv\n"
        "    synthetic: {kind: random_walk, length: 200}\n"
    )
    assert main(["run", "--config", str(path)]) == 2
    assert any("'csvpath'" in m and "'A'" in m for m in caplog.messages)


@pytest.mark.parametrize(
    "text, says",
    [
        (MINIMAL + "models: [[logistic]]\n", "unknown model kind ['logistic']"),
        ("seed: 1\ninstruments: 5\n", "'instruments' must be a list"),
    ],
    ids=["model-kind-not-a-string", "instruments-not-a-list"],
)
def test_cli_malformed_yaml_list_is_a_config_error(tmp_path, caplog, text, says):
    path = tmp_path / "lists.yml"
    path.write_text(text)
    assert main(["run", "--config", str(path)]) == 2
    assert any(says in m for m in caplog.messages)


@pytest.mark.parametrize(
    "entry, says",
    [
        ("symbol: null\n    synthetic: {kind: random_walk, length: 200}", "needs a string symbol"),
        ("symbol: A\n    csv: 5", "'csv' must be a path string, got 5"),
    ],
    ids=["symbol-null", "csv-not-a-string"],
)
def test_cli_instrument_entry_needs_string_symbol_and_csv(tmp_path, caplog, entry, says):
    path = tmp_path / "entry.yml"
    path.write_text(f"seed: 1\ninstruments:\n  - {entry}\n")
    assert main(["run", "--config", str(path)]) == 2
    assert any(says in m for m in caplog.messages)
