"""Every public function and class of the package has a caller.

A public top-level function or class in src/reachbudget must be
referenced, as a name or an attribute, somewhere in src/ or bench/
outside its own definition; a click command counts as referenced by
the group it registers with. References from inside a definition that
fails this test do not count either, so a chain of helpers that only
call each other fails as a whole. Code that only the tests call
belongs in the tests: tests/oracles.py keeps the reference
implementations and the checkers the acceptance claims are written
in. The one exception is the entry point, cli.main.

Every dataclass field in src/reachbudget is likewise read, as an
attribute, somewhere in src/ or bench/: a field that is only ever
written is state nothing depends on.

The training loop is likewise kept in one place: only
rcppo._train_loop runs minibatch updates and decays a learning rate.
So is the stepping of lanes: only the one training collect and
deployment call rcppo._run_lanes. So is the point-or-rows rule: only
envkit.base.ReachAvoidProblem and deployment call _as_batch, and only
_as_batch, build_obs and the regressor's input turn a point into a
row; every other function takes rows. So is
float32: only rcppo.fit_z_regressor makes a float32 net, and every
checkpoint loads as float64 nets.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np

from reachbudget import approx, cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "reachbudget"

# The entry point, which the package's console script names.
ALLOWED = {"cli.main"}


def _references(module, tree: ast.Module) -> list[tuple]:
    """(module, enclosing top-level definition or None, name) of every
    Name and Attribute outside the definition of that same name."""
    refs = []
    for stmt in tree.body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != owner:
                refs.append((module, owner, name))
    return refs


def _is_command(stmt) -> bool:
    return any(
        isinstance(dec, ast.Call) and isinstance(dec.func, ast.Attribute)
        and dec.func.attr == "command"
        for dec in stmt.decorator_list
    )


def _unused_definitions() -> list[str]:
    checked, refs = set(), []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text())
        checked |= {
            (module, stmt.name)
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and not _is_command(stmt)
            and f"{module}.{stmt.name}" not in ALLOWED
        }
        refs += _references(module, tree)
    for path in sorted((ROOT / "bench").rglob("*.py")):
        refs += _references("bench", ast.parse(path.read_text()))

    unused: set = set()
    while True:
        live = {name for module, owner, name in refs if (module, owner) not in unused}
        dead = {(module, name) for module, name in checked if name not in live}
        if dead == unused:
            return sorted(f"{module}.{name}" for module, name in unused)
        unused = dead


def test_every_public_definition_has_a_caller_outside_the_tests():
    unused = _unused_definitions()
    assert not unused, f"public definitions that no program path or bench file uses: {unused}"


# Fields that no program path reads but that stay: the acceptance oracle
# reads a grid's cell coordinates, and the golden digests pin the sweep count.
UNREAD_FIELDS = {
    "envkit.tabular.TabularMDP.coords",
    "reachval.TabularValueTable.sweeps",
}


def _is_dataclass(stmt) -> bool:
    for dec in getattr(stmt, "decorator_list", ()):
        dec = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(dec, "id", getattr(dec, "attr", None)) == "dataclass":
            return True
    return False


def _attribute_reads(path: pathlib.Path) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_dataclass_field_is_read_in_the_program_or_bench():
    fields, reads = set(), set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for stmt in ast.parse(path.read_text()).body:
            if _is_dataclass(stmt):
                fields |= {
                    (f"{module}.{stmt.name}.{node.target.id}", node.target.id)
                    for node in stmt.body
                    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                }
        reads |= _attribute_reads(path)
    for path in sorted((ROOT / "bench").rglob("*.py")):
        reads |= _attribute_reads(path)
    unread = sorted(q for q, name in fields if name not in reads and q not in UNREAD_FIELDS)
    assert not unread, f"dataclass fields that no program path or bench file reads: {unread}"


def _owners(match) -> set[str]:
    """module.definition of every top-level definition in src/reachbudget
    that holds an AST node match accepts."""
    owners = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for stmt in ast.parse(path.read_text()).body:
            if any(match(node) for node in ast.walk(stmt)):
                owners.add(f"{module}.{getattr(stmt, 'name', None)}")
    return owners


def _sets_base_lr(node) -> bool:
    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return False
    targets = getattr(node, "targets", None) or [node.target]
    return any(isinstance(t, ast.Attribute) and t.attr == "base_lr" for t in targets)


def _calls(name):
    def match(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        return getattr(node.func, "id", getattr(node.func, "attr", None)) == name

    return match


def test_only_the_shared_training_loop_updates_and_decays_the_learning_rate():
    # a trainer hands a collect closure to rcppo._train_loop; a loop of its
    # own would repeat the schedule, the stop rule and the log row
    assert _owners(_calls("_ppo_update")) == {"rcppo._train_loop"}
    assert _owners(_sets_base_lr) == {"rcppo._train_loop"}


def test_only_the_shared_collect_and_deployment_step_lanes():
    # every trainer records its lanes through rcppo._collect; a per-lane
    # loop of its own would repeat the tails, the rows and the summary
    assert _owners(_calls("_run_lanes")) == {"rcppo._collect", "rcppo.deploy_policy"}
    assert _owners(_calls("EpisodeRecord")) == {"rcppo.RolloutBatch"}


def test_only_the_problem_base_class_and_deployment_take_a_point_or_rows():
    # a problem writes the rows forms and ReachAvoidProblem turns a point
    # into one row and back; deployment takes one start or many
    assert _owners(_calls("_as_batch")) == {"envkit.base.ReachAvoidProblem", "rcppo.deploy_policy"}
    # _as_batch itself; build_obs, for one state with many budgets (the
    # bisect_z_star contract); and the regressor's input, for the one
    # start of a deploy_policy budget
    assert _owners(lambda node: _calls("atleast_2d")(node) or _tests_ndim_1(node)) == {
        "envkit.base._as_batch", "rcppo.build_obs", "rcppo._regressor_input",
    }


def _tests_ndim_1(node) -> bool:
    """A test of something's .ndim == 1."""
    return (
        isinstance(node, ast.Compare)
        and any(isinstance(op, ast.Eq) for op in node.ops)
        and any(getattr(side, "attr", None) == "ndim" for side in (node.left, *node.comparators))
        and any(getattr(side, "value", None) == 1 for side in (node.left, *node.comparators))
    )


def _names_float32(node) -> bool:
    """np.float32, np.single or a float32 dtype string."""
    if isinstance(node, ast.Constant):
        return node.value in ("float32", "f4", "<f4")
    return isinstance(node, ast.Attribute) and node.attr in ("float32", "single")


def test_only_the_budget_regressor_fit_makes_a_float32_net():
    # the bench replays deployment at 1e-9 and checks trainer gradients by
    # central differences at eps 1e-6, and neither holds in float32
    assert _owners(_names_float32) == {"rcppo.fit_z_regressor"}


def test_every_checkpoint_loads_as_float64_nets_even_from_float32_arrays(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    policy = approx.policy_init(2, np.array([-1.0]), np.array([1.0]), rng, hidden=(4,))
    net = approx.mlp_init((3, 4, 1), rng)
    files = {
        "policy": approx.policy_to_arrays(policy),
        "value": approx.mlp_to_arrays("value", net),
        "zmap": dict(approx.mlp_to_arrays("zmap", net), zmap_obs_scale=np.ones(2)),
    }
    meta = {"obs_scale": [1.0, 1.0], "z_min": -1.0, "z_max": 10.0, "big_c": 5.0,
            "holdout_mae": 0.5, "n_infeasible": 0}
    for kind, arrays in files.items():
        path = str(tmp_path / f"{kind}.ckpt")
        approx.save_checkpoint(path, {k: a.astype(np.float32) for k, a in arrays.items()}, meta)
        obj, _ = cli.load_artifact(path, kind, {}, False)
        loaded = obj.net if kind == "zmap" else obj
        assert loaded.flat.dtype == np.float64, kind
        assert all(a.dtype == np.float64 for a in loaded.trainable()), kind
