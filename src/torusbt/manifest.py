"""Manifest parsing and command execution with content-hash caching.

Manifests are INI-flavored text::

    [fixture]
    name = res_sqrt5            # optional; sections below override parts

    [group]
    generators = [[1,0]]        # permutation images, or: table = [[0,1],[1,0]]

    [lattice]
    rank = 1
    action.g0 = [[-1]]          # one matrix per group generator

    [lattice2]                  # optional, for check-isogeny
    rank = 2
    action.g0 = [[0,1],[1,0]]

    [realization]
    modulus = 5
    images = {2: 1}             # unit -> element index; units must generate (Z/f)*

    [commands]
    run = predict, wgroup       # optional; the CLI command overrides this

    [options]
    prime_cap = 50
    stab_cap = 30
    debug_oracles = False
    cache_dir = '/tmp/torusbt-cache'
    conj = 0                    # involution for real-decompose without realization

Values are Python literals; long arrays may continue on indented lines.
Reports are JSON with exact rationals as "num/den" strings; identical
inputs are served from the cache byte-identically except the timestamp.
"""

from __future__ import annotations

import ast
import datetime
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass, field

from . import catalog, cohomology, engine, intmat, lattices, realization as realz
from .dirichlet import artin_L_minus_one
from .errors import ManifestError, NonAbelianRealization, TorusBTError
from .groups import FiniteGroup, group_from_generators, group_from_table, subgroup_classes
from .lattices import GLattice
from .realization import AbelianRealization, realization_from_images

SCHEMA_VERSION = 1

COMMANDS = ("predict", "lvalue", "wgroup", "resolve", "motivic",
            "real-decompose", "local-table", "check-isogeny", "check-shapiro")


@dataclass
class Manifest:
    group: FiniteGroup | None = None
    lattice: GLattice | None = None
    lattice2: GLattice | None = None
    realization: AbelianRealization | None = None
    fixture_name: str | None = None
    commands: tuple[str, ...] = ("predict",)
    options: dict = field(default_factory=dict)


def _parse_sections(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """section -> {key: (raw value, line number)}; supports continuations."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    last_key: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if raw[:1].isspace() and last_key is not None and current is not None:
            val, ln = sections[current][last_key]
            sections[current][last_key] = (val + " " + stripped, ln)
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            current = stripped[1:-1].strip().lower()
            if not current:
                raise ManifestError("empty section name", line=lineno)
            sections.setdefault(current, {})
            last_key = None
            continue
        if "=" not in stripped:
            raise ManifestError("expected 'key = value'", line=lineno)
        if current is None:
            raise ManifestError("key outside any [section]", line=lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ManifestError(f"duplicate key {key}", line=lineno, field=key)
        sections[current][key] = (value.strip(), lineno)
        last_key = key
    return sections


def _literal(raw: str, lineno: int, fieldname: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError) as exc:
        raise ManifestError(f"cannot parse value: {exc}", line=lineno, field=fieldname)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The [options] keys: predicate and what it demands.
_OPTION_TYPES = {
    "stab_cap": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "prime_cap": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "conj": (_is_int, "an integer"),
    "debug_oracles": (lambda v: isinstance(v, bool), "True or False"),
    "cache_dir": (lambda v: isinstance(v, str), "a quoted path"),
}


def check_option(key: str, value, line: int | None = None):
    """value itself when _OPTION_TYPES accepts it for key; otherwise, an
    unknown key included, a ManifestError on field options.<key>."""
    if key not in _OPTION_TYPES:
        raise ManifestError(f"unknown option {key!r}; allowed: {', '.join(_OPTION_TYPES)}",
                            line=line, field=f"options.{key}")
    ok, what = _OPTION_TYPES[key]
    if not ok(value):
        raise ManifestError(f"{key} must be {what}, got {value!r}",
                            line=line, field=f"options.{key}")
    return value


def _parse_lattice(group: FiniteGroup, section: dict, secname: str) -> GLattice:
    if "rank" not in section:
        raise ManifestError("lattice needs a rank", field=f"{secname}.rank")
    rank_raw, ln = section["rank"]
    rank = _literal(rank_raw, ln, "rank")
    if not _is_int(rank) or rank < 0:
        raise ManifestError("rank must be a nonnegative integer", line=ln, field="rank")
    gen_mats: dict[int, intmat.IntMatrix] = {}
    for key, (raw, ln) in section.items():
        if not key.startswith("action."):
            continue
        label = key[len("action."):]
        if label.startswith("g") and label[1:].isdigit():
            pos = int(label[1:])
            if pos >= len(group.generators):
                raise ManifestError(f"group has no generator g{pos}", line=ln, field=key)
            elem = group.generators[pos]
        elif label.isdigit():
            elem = int(label)
            if not (0 <= elem < group.order):
                raise ManifestError(f"no element {elem}", line=ln, field=key)
        else:
            raise ManifestError("action keys look like action.g0 or action.<element>",
                                line=ln, field=key)
        rows = _literal(raw, ln, key)
        try:
            gen_mats[elem] = intmat.from_rows(rows, rank if rank == 0 else None)
        except Exception as exc:
            raise ManifestError(f"bad matrix: {exc}", line=ln, field=key)
    missing = [s for s in group.generators if s not in gen_mats]
    if missing and rank > 0:
        raise ManifestError(f"missing action for generators {missing}",
                            field=f"{secname}.action")
    try:
        if rank == 0:
            return lattices.zero_lattice(group)
        return lattices.from_generator_matrices(group, rank, gen_mats)
    except TorusBTError as exc:
        raise ManifestError(str(exc), field=secname)


def parse_manifest(text: str) -> Manifest:
    sections = _parse_sections(text)
    man = Manifest()

    if "fixture" in sections:
        raw, ln = sections["fixture"].get("name", (None, 0))
        if raw is None:
            raise ManifestError("fixture section needs name =", field="fixture.name")
        name = raw.strip().strip("'\"")
        try:
            fx = catalog.fixture(name)
        except KeyError as exc:
            raise ManifestError(str(exc), line=ln, field="fixture.name")
        man.fixture_name = name
        man.group, man.lattice, man.realization = fx.group, fx.lattice, fx.realization

    if "group" in sections:
        sec = sections["group"]
        if "generators" in sec:
            raw, ln = sec["generators"]
            perms = _literal(raw, ln, "generators")
            try:
                man.group = group_from_generators(perms)
            except TorusBTError as exc:
                raise ManifestError(str(exc), line=ln, field="group.generators")
        elif "table" in sec:
            raw, ln = sec["table"]
            table = _literal(raw, ln, "table")
            gens = None
            if "gens" in sec:
                graw, gln = sec["gens"]
                gens = _literal(graw, gln, "gens")
            try:
                man.group = group_from_table(table, generators=gens)
            except TorusBTError as exc:
                raise ManifestError(str(exc), line=ln, field="group.table")
        else:
            raise ManifestError("group needs generators = or table =", field="group")

    if man.group is None:
        raise ManifestError("no group: supply [group] or [fixture]", field="group")

    if "lattice" in sections:
        man.lattice = _parse_lattice(man.group, sections["lattice"], "lattice")
    if man.lattice is None:
        raise ManifestError("no lattice: supply [lattice] or [fixture]", field="lattice")
    if "lattice2" in sections:
        man.lattice2 = _parse_lattice(man.group, sections["lattice2"], "lattice2")

    if "realization" in sections:
        sec = sections["realization"]
        if "modulus" not in sec:
            raise ManifestError("realization needs modulus =", field="realization.modulus")
        fraw, fln = sec["modulus"]
        modulus = _literal(fraw, fln, "modulus")
        if not _is_int(modulus):
            raise ManifestError("modulus must be an integer", line=fln,
                                field="realization.modulus")
        images = {}
        if "images" in sec:
            iraw, iln = sec["images"]
            images = _literal(iraw, iln, "images")
            if not (isinstance(images, dict)
                    and all(_is_int(u) and _is_int(e) for u, e in images.items())):
                raise ManifestError("images must be a {unit: element} dict of integers",
                                    line=iln, field="realization.images")
        try:
            man.realization = realization_from_images(man.group, modulus, images)
        except TorusBTError as exc:
            raise ManifestError(str(exc), line=fln, field="realization")
    for part in (man.lattice, man.realization):
        if part is not None and part.group.mul != man.group.mul:
            raise ManifestError("the fixture's lattice and realization are over its own "
                                "group; a different [group] needs its own [lattice] "
                                "and [realization]", field="group")

    if "commands" in sections:
        raw, ln = sections["commands"].get("run", (None, 0))
        if raw is not None:
            cmds = tuple(c.strip() for c in raw.split(",") if c.strip())
            for c in cmds:
                if c not in COMMANDS:
                    raise ManifestError(f"unknown command {c!r}", line=ln, field="commands.run")
            man.commands = cmds

    if "options" in sections:
        for key, (raw, ln) in sections["options"].items():
            man.options[key] = check_option(key, _literal(raw, ln, f"options.{key}"), ln)
    return man


def load_manifest(path: str) -> Manifest:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_manifest(fh.read())


def _inputs_json(man: Manifest) -> dict:
    return {
        "fixture": man.fixture_name,
        "group": {"order": man.group.order,
                  "table": [list(r) for r in man.group.mul],
                  "generators": list(man.group.generators)},
        "lattice": {"rank": man.lattice.rank,
                    "action": {str(a): m.tolist()
                               for a, m in enumerate(man.lattice.action)}},
        "lattice2": None if man.lattice2 is None else
            {"rank": man.lattice2.rank,
             "action": {str(a): m.tolist()
                        for a, m in enumerate(man.lattice2.action)}},
        "realization": None if man.realization is None else man.realization.to_json(),
        "options": dict(sorted(man.options.items())),
    }


def _require_realization(man: Manifest, cmd: str) -> AbelianRealization:
    if man.realization is not None:
        return man.realization
    if not man.group.is_abelian():
        raise NonAbelianRealization(
            f"{cmd} needs a realization and none can exist over a non-abelian "
            "group; predict/resolve/motivic still work symbolically")
    raise TorusBTError(f"{cmd} needs a [realization] section")


def _run_command(cmd: str, man: Manifest) -> dict:
    x, r = man.lattice, man.realization
    stab_cap = man.options.get("stab_cap", realz.STABILIZATION_CAP)
    prime_cap = man.options.get("prime_cap", 50)
    debug = man.options.get("debug_oracles", False)

    if cmd == "predict":
        return engine.btc_predict(x, r, stab_cap=stab_cap, debug=debug).to_json()
    if cmd == "lvalue":
        lv, table = artin_L_minus_one(x, _require_realization(man, cmd),
                                      with_table=True)
        return {"l_value": str(lv), "l_value_abs": str(abs(lv)), "characters": table}
    if cmd == "wgroup":
        r = _require_realization(man, cmd)
        wres = realz.w_group_order(x, r, cap=stab_cap, debug=debug)
        m = realz.global_coinvariants_order(x, r, cap=stab_cap)
        out = wres.to_json()
        return {"w_total": out["total"], "w_breakdown": out["breakdown"], "m_global": m}
    if cmd == "resolve":
        res = cohomology.flasque_resolution(x)
        out = res.to_json()
        out["q_action"] = {str(a): m.tolist() for a, m in enumerate(res.q_lattice.action)}
        out["subgroups"] = engine.subgroup_table_json(subgroup_classes(x.group))
        out["flasque_checked"] = True
        return out
    if cmd == "motivic":
        verdict, cert, _ = cohomology.check_motivic_interpretation(x)
        return {"verdict": verdict,
                "certificate": None if cert is None else cert.to_json()}
    if cmd == "real-decompose":
        if r is not None:
            conj = r.pi(r.modulus - 1 if r.modulus > 2 else 1)
        elif "conj" in man.options:
            conj = man.options["conj"]
        else:
            raise TorusBTError("real-decompose needs a realization or options.conj")
        a, b, c, tor = cohomology.real_decomposition(x, conj)
        return {"a": a, "b": b, "c": c, "kt_r_torsion": tor.to_json(),
                "conj_element": conj}
    if cmd == "local-table":
        return {"local_table": engine.local_table(
            x, _require_realization(man, cmd), prime_cap=prime_cap)}
    if cmd == "check-isogeny":
        if man.lattice2 is None:
            raise TorusBTError("check-isogeny needs a [lattice2] section")
        return engine.isogeny_invariance_check(
            x, man.lattice2, _require_realization(man, cmd))
    if cmd == "check-shapiro":
        return engine.shapiro_suite(_require_realization(man, cmd),
                                    stab_cap=stab_cap)
    raise ManifestError(f"unknown command {cmd!r}", field="command")


def _cache_key(man: Manifest) -> str:
    payload = {"schema": SCHEMA_VERSION, "inputs": _inputs_json(man),
               "commands": list(man.commands)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_manifest(man: Manifest, cache_dir: str | None = None) -> tuple[dict, bool]:
    """Execute the manifest's commands; returns (report, cache_hit).

    Per-command failures are embedded in the report without aborting the
    other commands. When a cache directory is configured, the report
    body is reused byte-for-byte on identical inputs (only the timestamp
    differs).
    """
    cache_dir = cache_dir or man.options.get("cache_dir")
    key = _cache_key(man)
    body = None
    hit = False
    cache_path = None
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        cache_path = os.path.join(cache_dir, key + ".json")
        if os.path.exists(cache_path):
            try:
                with open(cache_path, "r", encoding="utf-8") as fh:
                    cached = json.load(fh)
            except (OSError, ValueError):       # unreadable or corrupt: a miss
                cached = None
            if isinstance(cached, dict) and cached.get("cache_key") == key:
                body, hit = cached, True

    if body is None:
        results = {}
        for cmd in man.commands:
            try:
                results[cmd] = _run_command(cmd, man)
            except TorusBTError as exc:
                results[cmd] = {"error": {"type": type(exc).__name__,
                                          "message": str(exc)}}
        body = {
            "schema_version": SCHEMA_VERSION,
            "cache_key": key,
            "inputs": _inputs_json(man),
            "commands": results,
        }
        if cache_path:
            fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(body, fh, indent=2, sort_keys=True)
            os.replace(tmp, cache_path)

    report = dict(body)
    report["generated_at"] = datetime.datetime.now(datetime.timezone.utc) \
        .isoformat(timespec="seconds")
    return report, hit
