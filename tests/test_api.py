import ast
import functools
import inspect
import sys
import types
from pathlib import Path

import qldp

# Every public name of the package, modules aside.  Adding or removing an
# export is a deliberate edit of this list.
PUBLIC_EXPORTS = [
    "AccuracyDemand", "CertificationResult", "ChannelParseError",
    "DegenerateObservableError", "FiniteUnitaryGroup", "InfeasibleError",
    "InvalidInputError", "NoninvertibleError", "OutOfRegimeError", "PauliDecomposition",
    "PrivacyBudget", "QhtBounds", "QhtReduction", "QldpError", "QuantumChannel",
    "SearchConfig", "UtilityReport", "apply", "build_qht_reduction", "certify_qldp",
    "compose", "conjugated_channel", "decompose", "depolarizing",
    "depolarizing_privacy_profile", "effective_depolarizing_q", "enumerate_cliffords",
    "fidelity", "fidelity_lower_bound", "fit_depolarizing", "from_coeffs", "hockey_stick",
    "identity_channel", "measurement_operator_protocol", "optimal_depolarizing_p",
    "optimal_fidelity_utility", "optimal_trace_utility", "pauli_matrix",
    "pauli_measurement_channel", "positive_part", "private_shadow_p_hat",
    "qht_sample_bounds", "random_channel", "random_density", "random_pure",
    "replacement_channel", "required_samples_lower", "required_samples_upper",
    "shadow_required_samples", "threshold_test", "trace_distance", "twirl",
    "unitary_conjugate", "utility_curve", "utility_report",
]


def test_public_exports_are_pinned():
    exports = sorted(name for name, value in vars(qldp).items()
                     if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exports == sorted(PUBLIC_EXPORTS)
    assert len(PUBLIC_EXPORTS) == len(set(PUBLIC_EXPORTS)) == 55


def test_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one declared dependency; scipy may appear only as a skipping test oracle
    allowed = set(sys.stdlib_module_names) | {"numpy", "qldp"}
    sources = sorted(Path(qldp.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            assert set(roots) <= allowed, f"{path.name}:{node.lineno} imports {roots}"


def test_only_the_superoperator_property_builds_or_reads_the_superoperator():
    # the search kernels read the Kraus stack; the d^4 superoperator is built only on demand
    found = []
    for path in sorted(Path(qldp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = set()
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "QuantumChannel"):
            for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "superoperator"):
                exempt.update(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if (isinstance(node, ast.Attribute) and node.attr in ("superoperator", "_kraus_superoperator")
                    or isinstance(node, ast.Name) and node.id == "_kraus_superoperator"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def test_only_decompose_transforms_a_matrix_to_pauli_coefficients():
    # a state meets a Pauli string through pauli_trace; the whole-basis transform is decompose's
    found = []
    for path in sorted(Path(qldp.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = set()
        for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "decompose"):
            exempt.update(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            if id(node) in exempt or not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "pauli_coefficients":
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def _rule_owners_outside(package: Path) -> list[str]:
    """file:line of each rule written outside its owner.

    The Pauli support is scanned only in pauli._decomposition (no flatnonzero or
    count_nonzero of ``.coeffs``, no comparison of ``.coeffs`` with 0), NULL_TOL
    is read only in channels._positive_part, and the shadow sample-size
    constant 204 appears only in shadows._shadow_samples.
    """
    owners = {"pauli.py": "_decomposition", "channels.py": "_positive_part", "shadows.py": "_shadow_samples"}

    def reads_coeffs(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "coeffs" for n in ast.walk(node))

    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        exempt = set()
        for fn in (n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == owners.get(path.name)):
            exempt.update(map(id, ast.walk(fn)))
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                scan = name in ("flatnonzero", "count_nonzero") and any(map(reads_coeffs, node.args))
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                scan = any(map(reads_coeffs, sides)) and any(
                    isinstance(n, ast.Constant) and n.value == 0 for n in sides)
            else:
                scan = (isinstance(node, ast.Name) and node.id == "NULL_TOL" and isinstance(node.ctx, ast.Load)
                        or isinstance(node, ast.Attribute) and node.attr == "NULL_TOL"
                        or isinstance(node, ast.Constant) and node.value == 204)
            if scan:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_each_rule_has_one_owner():
    package = Path(qldp.__file__).parent
    assert not _rule_owners_outside(package)
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(package.glob("*.py"))}
    # one successive-halving schedule: privacy.py assigns its period and floor, utility.py imports them from there
    halving = ("HALVING_PERIOD", "HALVING_FLOOR")
    assigned = sorted(name for name, tree in trees.items() for node in ast.walk(tree)
                      if isinstance(node, ast.Name) and node.id in halving and isinstance(node.ctx, ast.Store))
    assert assigned == ["privacy.py", "privacy.py"]
    imported = {alias.name for node in ast.walk(trees["utility.py"])
                if isinstance(node, ast.ImportFrom) and node.module == "privacy" for alias in node.names}
    assert set(halving) <= imported
    # the utility ascent's fixed x1.5 step rule is gone: its steps are Barzilai-Borwein lengths
    assert not [name for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "STEP_UP"]
    # the decomposition has one name for its matrix
    assert not hasattr(qldp.PauliDecomposition, "reconstruct")
    assert isinstance(vars(qldp.PauliDecomposition)["matrix"], functools.cached_property)


def _calls_of(name: str, paths) -> list[str]:
    """file:line of every call of a function called ``name``, by plain name or attribute."""
    return [f"{path.name}:{node.lineno}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Call)
            and (node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)) == name]


def test_utility_calls_no_hill_climb():
    # the utility searches ascend by gradient steps
    assert not _calls_of("refine_extremum", [Path(qldp.__file__).parent / "utility.py"])


def test_nothing_in_the_package_calls_the_hill_climb():
    # certification runs the seesaw; refine_extremum stays for callers and the tests' oracle
    assert not _calls_of("refine_extremum", sorted(Path(qldp.__file__).parent.glob("*.py")))


def test_refine_extremum_keeps_its_signature():
    # the benchmark tracer wraps privacy.refine_extremum by name and passes value_fn first
    params = inspect.signature(qldp.privacy.refine_extremum).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        ("value_fn", inspect.Parameter.empty), ("dim", inspect.Parameter.empty),
        ("ncols", inspect.Parameter.empty), ("config", inspect.Parameter.empty), ("maximize", True)]
