"""The public surface: conic_embed.__all__ is sorted, unique and bound, the
removed names stay removed, from the package and from README.md, the
README's library example runs, and the side-specific transport names live
only as package aliases outside __all__."""

import importlib
import pathlib
import pkgutil
import re

import conic_embed

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

REMOVED = (
    # replaced by map_block, block_arrow_head and the io readers
    "rank_one_map",
    "sim_zhao_map",
    "rank_k_map",
    "full_rank_map",
    "scaled_arrow_head_blocks",
    "flatten_blocks",
    "split_vector",
    # no caller but their own tests; the readers and kernels they wrapped stay
    "recover_uw",
    "extract_block_vector",
    "arrow_head_inv",
    "numeric_rank",
    "full_rank_factors",
    "block_diag",
    "duality_gap",
    "sdo_gap",
    "arrowhead_eigensystem",
    "TemplateViolation",
)

SIDE_ALIASES = (
    "map_solution_dual",
    "map_solution_primal",
    "inverse_map_dual",
    "inverse_map_primal",
)


def submodules():
    # __main__ runs the command line when imported
    return [importlib.import_module(f"conic_embed.{info.name}")
            for info in pkgutil.iter_modules(conic_embed.__path__) if info.name != "__main__"]


def test_all_is_sorted_and_unique():
    names = conic_embed.__all__
    assert list(names) == sorted(names)
    assert len(set(names)) == len(names)


def test_every_exported_name_is_bound():
    missing = [name for name in conic_embed.__all__ if not hasattr(conic_embed, name)]
    assert missing == []


def test_removed_names_stay_removed():
    for module in (conic_embed, *submodules()):
        bound = [name for name in REMOVED if hasattr(module, name)]
        assert bound == [], module.__name__
    assert not set(REMOVED) & set(conic_embed.__all__)


def test_readme_names_no_removed_name():
    text = README.read_text()
    named = [name for name in REMOVED if re.search(rf"(?<!\w){name}(?!\w)", text)]
    assert named == []


def test_readme_library_example_runs():
    library = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, f"{README}:Library", "exec"), {})


def test_side_aliases_only_in_the_package():
    for name in SIDE_ALIASES:
        assert getattr(conic_embed, name).__module__ == "conic_embed", name
    assert not set(SIDE_ALIASES) & set(conic_embed.__all__)
    for module in submodules():
        bound = [name for name in SIDE_ALIASES if hasattr(module, name)]
        assert bound == [], module.__name__
    assert {"map_solution", "inverse_map"} <= set(conic_embed.__all__)
