import json
import re
import time

import pytest

from test_dirichlet_oracles import multiquadratic_realization
from torusbt import groups
from torusbt.catalog import fixture
from torusbt.cli import main as cli_main
from torusbt.engine import btc_predict
from torusbt.errors import ManifestError, UnknownFixture
from torusbt.groups import MODULUS_BOUND
from torusbt.manifest import load_manifest, parse_manifest, run_manifest

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
    with pytest.raises(ManifestError) as err:
        parse_manifest("[fixture]\nname = not_a_fixture\n")
    assert str(err.value).startswith("unknown fixture 'not_a_fixture'; have gm_q, ")
    assert err.value.field == "fixture.name"
    with pytest.raises(UnknownFixture, match="^unknown fixture 'nope'; have gm_q, "):
        fixture("nope")


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


@pytest.mark.parametrize("text", [None, b"[fixture]\nname = gm_q\n"],
                         ids=["none-text", "bytes-text"])
def test_manifest_text_that_is_not_a_string_is_manifest_error(text):
    """parse_manifest(None) was a raw AttributeError on splitlines."""
    with pytest.raises(ManifestError, match="must be a string"):
        parse_manifest(text)


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


def _one_line_error(capsys, prefix: str) -> None:
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(prefix), err
    assert "Traceback" not in err


def test_cli_manifest_that_is_a_directory(tmp_path, capsys):
    assert cli_main(["predict", str(tmp_path)]) == 2
    _one_line_error(capsys, "torusbt: cannot read the manifest: ")


def test_cli_manifest_that_is_not_utf8(tmp_path, capsys):
    mpath = tmp_path / "man.ini"
    mpath.write_bytes(b"[fixture]\nname = gm_q \xff\n")
    assert cli_main(["predict", str(mpath)]) == 2
    _one_line_error(capsys, "torusbt: manifest error: not UTF-8 text (invalid start byte")
    with pytest.raises(ManifestError, match="not UTF-8 text"):
        load_manifest(str(mpath))


def test_cli_report_into_a_missing_directory(tmp_path, capsys):
    mpath = tmp_path / "man.ini"
    mpath.write_text("[fixture]\nname = gm_q\n")
    out_json = tmp_path / "missing" / "report.json"
    assert cli_main(["predict", str(mpath), "--json", str(out_json)]) == 1
    _one_line_error(capsys, "torusbt: cannot write the report: ")
    assert not out_json.parent.exists()


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
    ("stab_cap", "30"),             # the precision now comes from w_2(L)
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
    man = parse_manifest(NORMONE + "\n[options]\nprime_cap = 20\n"
                         "conj = 1\ndebug_oracles = False\ncache_dir = 'c'\n")
    assert man.options == {"prime_cap": 20, "conj": 1,
                           "debug_oracles": False, "cache_dir": "c"}


def test_unknown_option_is_manifest_error(tmp_path, capsys):
    """A misspelt key (prime_cpa for prime_cap) was accepted, ignored, and
    written into the report's inputs and cache key."""
    text = "[fixture]\nname = res_sqrt5\n\n[options]\nprime_cpa = 1\n"
    with pytest.raises(ManifestError) as err:
        parse_manifest(text)
    assert err.value.field == "options.prime_cpa"
    assert "prime_cap" in str(err.value)
    mpath = tmp_path / "man.ini"
    mpath.write_text(text)
    assert cli_main(["predict", str(mpath)]) == 2
    assert "unknown option 'prime_cpa'" in capsys.readouterr().err


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


@pytest.mark.parametrize("flags", [["--prime-cap", "-1"], ["--prime-cap", "-50"],
                                   ["--prime-cap", "0"]])
def test_cli_overrides_are_checked_like_options(tmp_path, capsys, flags):
    mpath = tmp_path / "man.ini"
    mpath.write_text(NORMONE)
    assert cli_main(["predict", str(mpath), *flags]) == 2
    assert "must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("n", [7, 8])
def test_a_symmetric_group_past_the_order_bound_fails_fast(n):
    """S7 (order 5040) took 48 s to close and tabulate, and every command
    then refused it; S8 does not fit in memory. The closure stops at
    GROUP_ORDER_BOUND elements."""
    cycle = [(i + 1) % n for i in range(n)]
    swap = [1, 0] + list(range(2, n))
    text = (f"[group]\ngenerators = [{cycle}, {swap}]\n"
            "[lattice]\nrank = 1\naction.g0 = [[1]]\naction.g1 = [[1]]\n")
    start = time.perf_counter()
    with pytest.raises(ManifestError, match="closure past 256 elements") as err:
        parse_manifest(text)
    assert time.perf_counter() - start < 2.0
    assert err.value.field == "group.generators"
    assert groups.GROUP_ORDER_BOUND == 256


def test_a_200_cycle_parses_under_the_order_bound():
    text = (f"[group]\ngenerators = [{[(i + 1) % 200 for i in range(200)]}]\n"
            "[lattice]\nrank = 1\naction.g0 = [[1]]\n")
    assert parse_manifest(text).group.order == 200


def test_a_modulus_past_the_bound_fails_fast():
    """Walking the units mod 1000000007 reached 672 MB before any check;
    the modulus is refused up front."""
    start = time.perf_counter()
    with pytest.raises(ManifestError, match=f"modulus 1000000007 past {MODULUS_BOUND}") as err:
        parse_manifest(NORMONE.replace("modulus = 5", "modulus = 1000000007"))
    assert time.perf_counter() - start < 1.0
    assert err.value.field == "realization"


def test_the_f840_field_parses_under_the_modulus_bound():
    """Q(sqrt2, sqrt3, sqrt5, sqrt7) over C2^4 at f = 840, with every unit's image."""
    r = multiquadratic_realization((8, 12, 5, 28))
    perms = [[x ^ (1 << i) for x in range(16)] for i in range(4)]   # as r.group is built
    actions = "".join(f"action.g{i} = [[1]]\n" for i in range(4))
    text = (f"[group]\ngenerators = {perms}\n[lattice]\nrank = 1\n{actions}"
            f"[realization]\nmodulus = 840\nimages = {dict(r.images)}\n")
    man = parse_manifest(text)
    assert man.realization.modulus == 840 < MODULUS_BOUND
    assert man.realization.pi_table == r.pi_table


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


def _without_timestamp(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "generated_at"}


def test_cache_file_is_compact_json_of_the_body(tmp_path):
    """A miss writes the body on one line, and the hit serves it back."""
    miss, hit1 = run_manifest(parse_manifest(NORMONE), cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    text = path.read_text()
    assert json.loads(text) == _without_timestamp(miss)
    assert text == json.dumps(_without_timestamp(miss), sort_keys=True, separators=(",", ":"))
    hit, hit2 = run_manifest(parse_manifest(NORMONE), cache_dir=str(tmp_path))
    assert (hit1, hit2) == (False, True)
    assert _without_timestamp(hit) == _without_timestamp(miss)


def test_indented_cache_file_of_older_versions_is_a_hit(tmp_path):
    man = parse_manifest(NORMONE)
    man.commands = ("predict", "lvalue", "wgroup", "check-shapiro")
    miss, _ = run_manifest(man, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("*.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_without_timestamp(miss), fh, indent=2, sort_keys=True)
    report, hit = run_manifest(man, cache_dir=str(tmp_path))
    assert hit
    assert _without_timestamp(report) == _without_timestamp(miss)
    assert "\n  " in path.read_text()                # served, not rewritten


@pytest.mark.parametrize("layout", ["file", "under-a-file"])
def test_unusable_cache_directory_is_a_manifest_error(tmp_path, capsys, layout):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    cache = blocker if layout == "file" else blocker / "cache"
    with pytest.raises(ManifestError) as info:
        run_manifest(parse_manifest(NORMONE), cache_dir=str(cache))
    assert info.value.field == "options.cache_dir"
    with pytest.raises(ManifestError, match="options.cache_dir"):
        run_manifest(parse_manifest(NORMONE + f"[options]\ncache_dir = {str(cache)!r}\n"))
    mpath = tmp_path / "man.ini"
    mpath.write_text(NORMONE)
    capsys.readouterr()
    assert cli_main(["predict", str(mpath), "--cache-dir", str(cache)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("torusbt: cannot create the cache directory")
    assert "Traceback" not in err


def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)
    monkeypatch.setattr("torusbt.manifest.os.replace", refuse)
    with pytest.raises(ManifestError, match="cannot write the cache") as info:
        run_manifest(parse_manifest(NORMONE), cache_dir=str(tmp_path))
    assert info.value.field == "options.cache_dir"
    assert list(tmp_path.iterdir()) == []
    monkeypatch.undo()
    _, hit = run_manifest(parse_manifest(NORMONE), cache_dir=str(tmp_path))
    assert not hit and len(list(tmp_path.glob("*.json"))) == 1


def test_readme_names_exactly_the_options_and_flags():
    """README's [options] block lists the keys of manifest._OPTION_TYPES,
    and its command-line synopsis the optional flags of the parser: a knob
    that goes cannot linger in the docs, nor a new one go undocumented."""
    from pathlib import Path

    from torusbt.cli import build_parser
    from torusbt.manifest import _OPTION_TYPES
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n[options]\n", 1)[1].split("```", 1)[0]
    assert sorted(line.split("=")[0].strip() for line in block.splitlines()) == \
        sorted(_OPTION_TYPES)
    synopsis = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    flags = {s for a in build_parser()._actions for s in a.option_strings} - {"-h", "--help"}
    assert set(re.findall(r"--[a-z-]+", synopsis)) == flags


def test_readme_and_docstring_manifests_parse():
    """Every ```ini block of README.md and the manifest module's example
    parse. A trailing comment after a section header failed with
    "expected 'key = value'", and one after name = or run = was read as
    part of the fixture name or the command list."""
    import textwrap
    from pathlib import Path
    from torusbt import manifest

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    example = textwrap.dedent(manifest.__doc__.split("::\n", 1)[1].split("\nValues are", 1)[0])
    assert len(blocks) >= 2 and "[lattice2]" in example
    parsed = [parse_manifest(text) for text in blocks + [example]]
    assert parsed[0].fixture_name == "res_sqrt5"
    for man in parsed[1:]:
        assert man.lattice2 is not None and man.commands == ("predict", "wgroup")
    assert parsed[-1].fixture_name == "res_sqrt5"


def test_trailing_comments_and_quoted_hashes():
    """A comment after a header, a fixture name or a run list is dropped;
    a "#" inside a quoted literal stays."""
    man = parse_manifest("[fixture]   # the anchor\nname = normone_5  # Z^-\n"
                         "[commands]  # two of them\nrun = predict, lvalue  # no more\n"
                         "[options]\ncache_dir = 'cache#1'  # a path with a hash\n")
    assert man.fixture_name == "normone_5"
    assert man.commands == ("predict", "lvalue")
    assert man.options["cache_dir"] == "cache#1"
