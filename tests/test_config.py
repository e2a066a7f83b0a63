import hashlib

import pytest

from protonas.analysis import config_digest
from protonas.cli import main
from protonas.config import SEED_ENV_VAR, build_config, default_config_yaml, load_config
from protonas.errors import ConfigError

# run_summary.json's config_hash of the built-in configuration; a later
# run can only be recognised as the same configuration while it holds
DEFAULT_CONFIG_HASH = "bee2af4244472887c1474f88f4b6ea43547cd718df0942c5647e5f5e02b78973"


def test_defaults_round_trip():
    import yaml

    doc = yaml.safe_load(default_config_yaml())
    cfg = build_config(doc, env={})
    base = build_config(None, env={})
    assert cfg.echo() == base.echo()
    assert cfg.search.trials == 500
    assert cfg.search.population_size == 50
    assert cfg.hss.k == 5
    assert cfg.hss.population == 2000
    assert cfg.hss.mutation_rate == 0.3
    assert cfg.hss.generations == 10000
    assert cfg.search.space.gene_count() == 14


def test_echo_carries_protocol_shape():
    echo = build_config(None, env={}).echo()
    assert echo["search"]["trials"] == 500
    assert echo["space"]["gene_count"] == 14
    assert echo["search"]["objective_count"] == 5
    assert echo["hss"]["k"] == 5


def test_seed_precedence():
    # flag > explicit file value > environment > zero
    assert build_config(None, env={}).search.base_seed == 0
    assert build_config(None, env={SEED_ENV_VAR: "7"}).search.base_seed == 7
    doc = {"search": {"base_seed": 3}}
    assert build_config(doc, env={SEED_ENV_VAR: "7"}).search.base_seed == 3
    flag = {"search": {"base_seed": 11}}
    assert build_config(doc, flag, env={SEED_ENV_VAR: "7"}).search.base_seed == 11
    with pytest.raises(ConfigError):
        build_config(None, env={SEED_ENV_VAR: "not-a-number"})


def test_overrides_merge_over_the_document_before_any_check():
    doc = {"search": {"trials": 60}, "hss": {"k": 2}}
    cfg = build_config(doc, {"search": {"base_seed": 4}, "hss": {"k": 3}, "jobs": 2}, env={})
    assert (cfg.search.trials, cfg.search.base_seed, cfg.hss.k, cfg.jobs) == (60, 4, 3, 2)
    with pytest.raises(ConfigError, match="hss.k: must be >= 1"):
        build_config(None, {"hss": {"k": 0}}, env={})
    # an override leaves a malformed section of the document an error
    with pytest.raises(ConfigError, match="search: expected a mapping"):
        build_config({"search": 5}, {"search": {"base_seed": 4}}, env={})


def test_partial_documents_merge_over_defaults():
    cfg = build_config({"search": {"trials": 60}}, env={})
    assert cfg.search.trials == 60
    assert cfg.search.population_size == 50
    assert cfg.search.profile.ram_max == 1024 * 1024


def test_unknown_fields_are_rejected():
    with pytest.raises(ConfigError, match="unknown field"):
        build_config({"serach": {}}, env={})
    with pytest.raises(ConfigError, match="search.trialz"):
        build_config({"search": {"trialz": 10}}, env={})


def test_type_errors_name_the_field():
    with pytest.raises(ConfigError, match="search.trials"):
        build_config({"search": {"trials": "many"}}, env={})
    with pytest.raises(ConfigError, match="jobs"):
        build_config({"jobs": 0}, env={})
    with pytest.raises(ConfigError, match="hss.k"):
        build_config({"hss": {"k": 0}}, env={})
    with pytest.raises(ConfigError):
        build_config({"task": {"num_classes": 1}}, env={})


def test_packaged_catalog_and_defaults_load_equal_under_both_yaml_loaders(tmp_path):
    """libyaml's loader, where PyYAML has it, and PyYAML's own give equal
    documents: the packaged template catalog and print-defaults' output
    (with the pure-Python loader only, both reads are that loader's)."""
    import yaml

    from protonas.archspace.templates import DEFAULT_TEMPLATES_PATH, SAFE_LOADER, read_yaml

    assert SAFE_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    defaults = tmp_path / "defaults.yaml"
    defaults.write_text(default_config_yaml(), encoding="utf-8")
    for path in (DEFAULT_TEMPLATES_PATH, defaults):
        text = path.read_text(encoding="utf-8")
        assert read_yaml(path) == yaml.load(text, Loader=yaml.SafeLoader)
    assert load_config(defaults, env={}).echo() == build_config(None, env={}).echo()


def test_load_config_yaml_diagnostics(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("search: [unclosed\n")
    with pytest.raises(ConfigError, match=r"(?s)invalid YAML .*line 1, column \d+"):
        load_config(bad)
    missing = tmp_path / "missing.yaml"
    with pytest.raises(ConfigError):
        load_config(missing)
    good = tmp_path / "good.yaml"
    good.write_text("search:\n  trials: 64\n  population_size: 8\n")
    assert load_config(good, env={}).search.trials == 64


def test_config_hash_changes_with_content():
    a = config_digest(build_config(None, env={}).echo())
    b = config_digest(build_config({"search": {"trials": 60}}, env={}).echo())
    assert a != b


def test_print_defaults_bytes_are_pinned(capsys):
    assert main(["print-defaults"]) == 0
    out = capsys.readouterr().out
    assert out == default_config_yaml()
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "05d874be5b9bb50e02b7770c2835d2b98a37e6d97a5f208f0c8c0e2d97fe0546"


def test_default_config_hash_is_pinned():
    assert config_digest(build_config(None, env={}).echo()) == DEFAULT_CONFIG_HASH


@pytest.mark.parametrize(
    "doc, digest",
    [
        ({"space": {"width_range": [1, 1]}},
         "c8977476d5c803c2c97de8fc87065b92e8be4393052d9df1a6083bef3a92aba8"),
        ({"hss": {"mutation_rate": 1}},
         "326c9edefb73987df5171f421ea6e35fbfd88153b1fa5c8e499b766675981e79"),
        # PyYAML reads 1e-6 (no dot) as a string
        ({"proxy": {"eps_std": "1e-6"}}, DEFAULT_CONFIG_HASH),
        ({"profile": {"name": 123}},
         "267c6379e1a721524cdeb261da7fa6c9b99d98e22fab7478f716c0581eafe87f"),
        ({"task": {"input_shape": [3, 64.0]}},
         "dc0e17ba4445b15ae287c3e70aa6cbd8097a4393cf8301b0ad066a573ed2ff8a"),
        ({"jobs": 2}, DEFAULT_CONFIG_HASH),
    ],
)
def test_accepted_documents_keep_their_digest(doc, digest):
    assert config_digest(build_config(doc, env={}).echo()) == digest


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"search": {"trials": True}}, "search.trials"),
        ({"search": {"trials": 500.0}}, "search.trials"),
        ({"proxy": {"batch_size": "8"}}, "proxy.batch_size"),
        ({"hss": {"seed": False}}, "hss.seed"),
        ({"profile": {"ram_max": 1e6}}, "profile.ram_max"),
        ({"hss": {"k": 5.0}}, "hss.k"),
        ({"space": {"group_count": 4}}, "space.group_count"),
        # a list field is never split from a string, and numpy's
        # generator refuses a negative seed
        ({"task": {"num_classes": 10.0}}, "task.num_classes"),
        ({"task": {"num_classes": "10"}}, "task.num_classes"),
        ({"space": {"baseline_pool": "resnet"}}, "space.baseline_pool: expected a list"),
        ({"space": {"depth_values": "0123"}}, "space.depth_values: expected a list"),
        ({"space": {"kernel_stride_values": [[3, 2], "31"]}}, "space.kernel_stride_values"),
        ({"space": {"width_range": "11"}}, "space.width_range: expected a list"),
        ({"space": {"sparsity_range": "01"}}, "space.sparsity_range: expected a list"),
        ({"task": {"input_shape": "364"}}, "task.input_shape: expected a list"),
        ({"hss": {"seed": -3}}, "hss.seed: must be >= 0"),
    ],
)
def test_rejected_documents_name_the_field(doc, field):
    with pytest.raises(ConfigError, match=field):
        build_config(doc, env={})
