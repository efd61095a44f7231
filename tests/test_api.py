"""The public surface: conic_embed.__all__ is sorted, unique and bound, and
the names removed in favour of map_block, block_arrow_head and the io readers
stay removed."""

import conic_embed

REMOVED = (
    "rank_one_map",
    "sim_zhao_map",
    "rank_k_map",
    "full_rank_map",
    "scaled_arrow_head_blocks",
    "flatten_blocks",
    "split_vector",
)


def test_all_is_sorted_and_unique():
    names = conic_embed.__all__
    assert list(names) == sorted(names)
    assert len(set(names)) == len(names)


def test_every_exported_name_is_bound():
    missing = [name for name in conic_embed.__all__ if not hasattr(conic_embed, name)]
    assert missing == []


def test_removed_names_stay_removed():
    from conic_embed import embed_dual, embed_primal, io

    for module in (conic_embed, embed_dual, embed_primal, io):
        bound = [name for name in REMOVED if hasattr(module, name)]
        assert bound == [], module.__name__
    assert not set(REMOVED) & set(conic_embed.__all__)
