import json
import re

import pytest

from torusbt import groups
from torusbt.cli import main as cli_main
from torusbt.engine import btc_predict
from torusbt.errors import ManifestError
from torusbt.manifest import parse_manifest, run_manifest

NORMONE = """
# norm-one torus of Q(sqrt5)
[group]
generators = [[1,0]]

[lattice]
rank = 1
action.g0 = [[-1]]

[realization]
modulus = 5
images = {2: 1}
"""


def test_parse_explicit_manifest():
    man = parse_manifest(NORMONE)
    assert man.group.order == 2
    assert man.lattice.rank == 1
    assert man.realization.modulus == 5
    assert man.commands == ("predict",)


def test_parse_fixture_manifest():
    man = parse_manifest("[fixture]\nname = res_sqrt2\n")
    assert man.fixture_name == "res_sqrt2"
    assert man.realization.modulus == 8


def test_parse_multiline_value():
    text = """
[group]
generators = [[1,0,3,2],
    [2,3,0,1]]

[lattice]
rank = 1
action.g0 = [[1]]
action.g1 = [[1]]
"""
    man = parse_manifest(text)
    assert man.group.order == 4


def test_parse_table_group():
    text = """
[group]
table = [[0,1],[1,0]]
gens = [1]

[lattice]
rank = 1
action.g0 = [[-1]]
"""
    man = parse_manifest(text)
    assert man.group.order == 2
    assert man.lattice.action[1].tolist() == [[-1]]


def test_parse_error_reports_line():
    bad = "[group]\ngenerators = [[1,0]]\nnonsense line\n"
    with pytest.raises(ManifestError) as err:
        parse_manifest(bad)
    assert err.value.line == 3


def test_parse_error_bad_value_line():
    bad = "[group]\ngenerators = [[1,0]\n\n[lattice]\nrank = 1\naction.g0 = [[-1]]\n"
    with pytest.raises(ManifestError) as err:
        parse_manifest(bad)
    assert err.value.line == 2


def test_unknown_command_is_parse_error():
    bad = NORMONE + "\n[commands]\nrun = predict, frobnicate\n"
    with pytest.raises(ManifestError) as err:
        parse_manifest(bad)
    assert "frobnicate" in str(err.value)


def test_unknown_fixture():
    with pytest.raises(ManifestError):
        parse_manifest("[fixture]\nname = not_a_fixture\n")


def test_group_section_cannot_move_a_fixture_onto_another_group():
    """res_sqrt5 is over C2; a C3 [group] without its own [lattice] would run
    the C2 lattice and file the report under C3."""
    text = "[fixture]\nname = res_sqrt5\n[group]\ngenerators = [[1,2,0]]\n"
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert err.value.field == "group"
    # Restating the fixture's own group is not a move.
    same = parse_manifest("[fixture]\nname = res_sqrt5\n[group]\ngenerators = [[1,0]]\n")
    assert same.lattice.group.mul == same.group.mul


def test_missing_lattice():
    with pytest.raises(ManifestError):
        parse_manifest("[group]\ngenerators = [[1,0]]\n")


def test_run_manifest_predict():
    man = parse_manifest(NORMONE)
    report, hit = run_manifest(man)
    assert not hit
    out = report["commands"]["predict"]
    assert out["predicted_kt_order"] == "4"
    assert report["schema_version"] == 1
    assert "generated_at" in report


def test_run_manifest_embeds_command_errors():
    man = parse_manifest(NORMONE)
    man.commands = ("check-isogeny", "predict")
    man.lattice2 = None
    report, _ = run_manifest(man)
    assert "error" in report["commands"]["check-isogeny"]
    assert report["commands"]["predict"]["predicted_kt_order"] == "4"


def test_cache_roundtrip(tmp_path):
    man = parse_manifest(NORMONE)
    r1, hit1 = run_manifest(man, cache_dir=str(tmp_path))
    r2, hit2 = run_manifest(parse_manifest(NORMONE), cache_dir=str(tmp_path))
    assert not hit1 and hit2
    s1 = json.dumps({k: v for k, v in r1.items() if k != "generated_at"}, sort_keys=True)
    s2 = json.dumps({k: v for k, v in r2.items() if k != "generated_at"}, sort_keys=True)
    assert s1 == s2                      # byte-identical modulo timestamp
    assert len(list(tmp_path.glob("*.json"))) == 1


def test_cache_key_distinguishes_commands(tmp_path):
    man = parse_manifest(NORMONE)
    run_manifest(man, cache_dir=str(tmp_path))
    man2 = parse_manifest(NORMONE)
    man2.commands = ("wgroup",)
    run_manifest(man2, cache_dir=str(tmp_path))
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cli_end_to_end(tmp_path, capsys):
    mpath = tmp_path / "man.ini"
    mpath.write_text(NORMONE)
    out_json = tmp_path / "report.json"
    rc = cli_main(["predict", str(mpath), "--json", str(out_json)])
    assert rc == 0
    report = json.loads(out_json.read_text())
    assert report["commands"]["predict"]["w_order"] == 10


def test_cli_fixture_and_cache(tmp_path, capsys):
    mpath = tmp_path / "man.ini"
    mpath.write_text("[fixture]\nname = gm_q\n")
    cache = tmp_path / "cache"
    assert cli_main(["predict", str(mpath), "--cache-dir", str(cache)]) == 0
    first = capsys.readouterr()
    assert cli_main(["predict", str(mpath), "--cache-dir", str(cache)]) == 0
    second = capsys.readouterr()
    assert "served from cache" in second.err
    strip = lambda s: re.sub(r'"generated_at": "[^"]*"', '"generated_at": "-"', s)
    assert strip(first.out) == strip(second.out)
    rep = json.loads(second.out)
    assert rep["commands"]["predict"]["predicted_kt_order"] == "2"


def test_cli_manifest_error_exit_code(tmp_path, capsys):
    mpath = tmp_path / "man.ini"
    mpath.write_text("[group]\n")
    assert cli_main(["predict", str(mpath)]) == 2
    assert cli_main(["predict", str(tmp_path / "missing.ini")]) == 2


def test_cli_debug_oracles_flag(tmp_path):
    mpath = tmp_path / "man.ini"
    mpath.write_text("[fixture]\nname = normone_5\n")
    assert cli_main(["wgroup", str(mpath), "--debug-oracles"]) == 0


def test_real_decompose_needs_conj_or_realization(tmp_path):
    text = "[group]\ngenerators = [[1,0]]\n\n[lattice]\nrank = 1\naction.g0 = [[-1]]\n"
    man = parse_manifest(text)
    man.commands = ("real-decompose",)
    report, _ = run_manifest(man)
    assert "error" in report["commands"]["real-decompose"]
    man2 = parse_manifest(text + "\n[options]\nconj = 1\n")
    man2.commands = ("real-decompose",)
    report2, _ = run_manifest(man2)
    assert report2["commands"]["real-decompose"]["b"] == 1


@pytest.mark.parametrize("conj", [99, -1])
def test_real_decompose_conj_out_of_range_is_a_typed_error(conj):
    text = ("[group]\ngenerators = [[1,0]]\n\n[lattice]\nrank = 1\naction.g0 = [[-1]]\n"
            f"\n[options]\nconj = {conj}\n")
    man = parse_manifest(text)
    man.commands = ("real-decompose",)
    report, _ = run_manifest(man)
    assert report["commands"]["real-decompose"]["error"]["type"] == "ShapeMismatch"


def test_non_integer_modulus_is_manifest_error():
    with pytest.raises(ManifestError) as err:
        parse_manifest(NORMONE.replace("modulus = 5", "modulus = 'x'"))
    assert err.value.field == "realization.modulus"


def test_non_integer_image_unit_is_manifest_error():
    with pytest.raises(ManifestError) as err:
        parse_manifest(NORMONE.replace("images = {2: 1}", "images = {2.5: 1}"))
    assert err.value.field == "realization.images"


@pytest.mark.parametrize("corrupt", ["{not json", "[1, 2]", "{}", b"\xff\xfe"])
def test_corrupt_cache_file_is_a_miss_and_rewritten(tmp_path, corrupt):
    man = parse_manifest(NORMONE)
    first, _ = run_manifest(man, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    if isinstance(corrupt, bytes):
        path.write_bytes(corrupt)
    else:
        path.write_text(corrupt)
    report, hit = run_manifest(parse_manifest(NORMONE), cache_dir=str(tmp_path))
    assert not hit
    assert report["commands"] == first["commands"]
    assert json.loads(path.read_text())["commands"] == first["commands"]
    _, hit_again = run_manifest(parse_manifest(NORMONE), cache_dir=str(tmp_path))
    assert hit_again


@pytest.mark.parametrize("key, raw", [
    ("stab_cap", "'a'"), ("stab_cap", "2.7"), ("stab_cap", "True"), ("stab_cap", "0"),
    ("prime_cap", "'a'"), ("prime_cap", "-3"), ("prime_cap", "False"),
    ("conj", "'x'"), ("conj", "1.0"), ("conj", "True"),
    ("debug_oracles", "'no'"), ("debug_oracles", "0"),
    ("cache_dir", "5"),
])
def test_badly_typed_option_is_manifest_error(key, raw):
    with pytest.raises(ManifestError) as err:
        parse_manifest(f"{NORMONE}\n[options]\n{key} = {raw}\n")
    assert err.value.field == f"options.{key}"


def test_typed_options_pass_through():
    man = parse_manifest(NORMONE + "\n[options]\nstab_cap = 30\nprime_cap = 20\n"
                         "conj = 1\ndebug_oracles = False\ncache_dir = 'c'\n")
    assert man.options == {"stab_cap": 30, "prime_cap": 20, "conj": 1,
                           "debug_oracles": False, "cache_dir": "c"}


def test_unknown_option_is_manifest_error(tmp_path, capsys):
    """A misspelt key (stab_cpa for stab_cap) was accepted, ignored, and
    written into the report's inputs and cache key."""
    text = "[fixture]\nname = res_sqrt5\n\n[options]\nstab_cpa = 1\n"
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert err.value.field == "options.stab_cpa"
    assert "stab_cap" in str(err.value)
    mpath = tmp_path / "man.ini"
    mpath.write_text(text)
    assert cli_main(["predict", str(mpath)]) == 2
    assert "unknown option 'stab_cpa'" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, field", [
    ("action.g0 = [[-1]]", "action.g0 = [[1.5]]", "action.g0"),
    ("action.g0 = [[-1]]", "action.g0 = [[True]]", "action.g0"),
    ("rank = 1", "rank = True", "rank"),
    ("generators = [[1,0]]", "generators = 5", "group.generators"),
    ("generators = [[1,0]]", "generators = [[1, 'a']]", "group.generators"),
    ("generators = [[1,0]]", "table = 'ab'", "group.table"),
    ("generators = [[1,0]]", "table = [[0,1],[1,0]]\ngens = 'x'", "group.table"),
    ("generators = [[1,0]]", "table = [[0,1],[1,0]]\ngens = [7]", "group.table"),
])
def test_badly_typed_group_or_matrix_is_manifest_error(old, new, field):
    """Each was a raw TypeError or ValueError, or (1.5, True, gens = [7])
    silently accepted."""
    with pytest.raises(ManifestError) as err:
        parse_manifest(NORMONE.replace(old, new))
    assert err.value.field == field


@pytest.mark.parametrize("flags", [["--stab-cap", "-1"], ["--stab-cap", "0"],
                                   ["--prime-cap", "0"]])
def test_cli_overrides_are_checked_like_options(tmp_path, capsys, flags):
    mpath = tmp_path / "man.ini"
    mpath.write_text(NORMONE)
    assert cli_main(["predict", str(mpath), *flags]) == 2
    assert "must be a positive integer" in capsys.readouterr().err


def test_wrong_size_action_matrix_is_manifest_error():
    with pytest.raises(ManifestError) as err:
        parse_manifest(NORMONE.replace("action.g0 = [[-1]]", "action.g0 = [[-1, 0]]"))
    assert err.value.field == "lattice"


def _cyclic_manifest(n, action, modulus, commands):
    """C_n generated by an n-cycle, with 2 mapped to that generator."""
    shift = [(i + 1) % n for i in range(n)]
    return (f"[group]\ngenerators = [{shift}]\n"
            f"[lattice]\nrank = {len(action)}\naction.g0 = {action}\n"
            f"[realization]\nmodulus = {modulus}\nimages = {{2: 1}}\n"
            f"[commands]\nrun = {commands}\n")


def test_manifest_run_enumerates_subgroups_once(monkeypatch):
    """Res of Q(zeta_13)^+ (Z[C6]) through every command that reads subgroups."""
    calls = []
    real = groups.all_subgroups

    def counted(g):
        calls.append(g)
        return real(g)
    monkeypatch.setattr(groups, "all_subgroups", counted)
    regular = [[1 if i == (j + 1) % 6 else 0 for j in range(6)] for i in range(6)]
    man = parse_manifest(_cyclic_manifest(
        6, regular, 13, "predict, lvalue, wgroup, resolve, real-decompose, "
                        "local-table, check-shapiro"))
    report, _ = run_manifest(man)
    assert not [c for c in report["commands"].values() if "error" in c]
    assert len(calls) == 1


def test_commands_without_subgroups_run_past_the_enumeration_bound():
    """|C50| = 50 is past SUBGROUP_ENUM_BOUND, which binds only non-abelian
    groups: predict runs and reports what btc_predict does."""
    man = parse_manifest(_cyclic_manifest(
        50, [[1]], 101, "lvalue, wgroup, local-table, predict"))
    out = run_manifest(man)[0]["commands"]
    assert out["lvalue"]["l_value"] == "-1/12"
    assert out["wgroup"]["w_total"] == 24
    assert out["local-table"]["local_table"]
    assert out["predict"] == btc_predict(man.lattice, man.realization).to_json()
