"""Grid-tile partitioner invariants (``repro.graphs.partition``).

The sharded propagation path trusts exactly four properties of the
partitioner, so each is pinned here: near-equal contiguous bands for
non-divisible dimensions, identity behaviour for the single-tile
degenerate case, total destination-side edge ownership (halo
completeness), and tolerance of tiles that happen to own zero stores.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.partition import GridTilePartition, partition_grid


def test_non_divisible_dimensions_split_near_equal():
    part = GridTilePartition(7, 5, 3, 2)
    # array_split semantics: first bands get the extra row/col.
    assert part.row_splits.tolist() == [0, 3, 5, 7]
    assert part.col_splits.tolist() == [0, 3, 5]
    sizes = [len(part.tile_regions(t)) for t in range(part.num_tiles)]
    assert sum(sizes) == part.num_regions
    assert max(sizes) - min(sizes) <= 5  # (3x3) vs (2x2) corner tiles
    # Contiguity: each tile is an axis-aligned rectangle of region ids.
    for tile in range(part.num_tiles):
        r0, r1, c0, c1 = part.tile_bounds(tile)
        regions = part.tile_regions(tile)
        rows, cols = np.divmod(regions, part.cols)
        assert rows.min() == r0 and rows.max() == r1 - 1
        assert cols.min() == c0 and cols.max() == c1 - 1


def test_every_region_owned_exactly_once():
    part = GridTilePartition(6, 9, 2, 3)
    seen = np.concatenate(
        [part.tile_regions(t) for t in range(part.num_tiles)]
    )
    assert np.array_equal(np.sort(seen), np.arange(part.num_regions))
    for tile in range(part.num_tiles):
        assert np.all(part.owner[part.tile_regions(tile)] == tile)


def test_single_tile_is_identity_partition():
    part = GridTilePartition(5, 4, 1, 1)
    assert part.num_tiles == 1
    assert np.array_equal(part.tile_regions(0), np.arange(20))
    assert np.all(part.owner == 0)
    assert part.halo_regions(0).size == 0
    edges = np.array([0, 7, 19, 3])
    assert np.all(part.edge_owner(edges) == 0)
    assert part.cut_fraction(edges, edges[::-1]) == 0.0


def test_halo_completeness_every_cross_tile_edge_has_one_owner():
    rng = np.random.default_rng(0)
    part = GridTilePartition(8, 8, 2, 2)
    # Random short-range edges (radius <= 2 Chebyshev cells), like the
    # distance-thresholded graph planes.
    src_r = rng.integers(0, 8, 500)
    src_c = rng.integers(0, 8, 500)
    dst_r = np.clip(src_r + rng.integers(-2, 3, 500), 0, 7)
    dst_c = np.clip(src_c + rng.integers(-2, 3, 500), 0, 7)
    src = src_r * 8 + src_c
    dst = dst_r * 8 + dst_c
    owner = part.edge_owner(dst)
    # Ownership is a total function of dst: the per-tile edge sets
    # partition the edge list.
    counts = np.bincount(owner, minlength=part.num_tiles)
    assert counts.sum() == len(src)
    # Every cross-tile edge's source sits in the owning tile's halo ring.
    for tile in range(part.num_tiles):
        mine = owner == tile
        cross = mine & (part.owner[src] != tile)
        halo = set(part.halo_regions(tile, radius=2).tolist())
        assert all(int(r) in halo for r in src[cross])


def test_tile_with_zero_stores_yields_empty_band():
    # Stores clustered in the top rows: the bottom band owns none.
    part = GridTilePartition(6, 4, 3, 1)
    store_regions = np.array([0, 1, 5, 9], dtype=np.int64)  # rows 0-2 only
    cuts = part.row_splits * part.cols
    splits = np.searchsorted(store_regions, cuts)
    assert splits[-2] == splits[-1]  # last band: empty range, not an error
    bands = [
        store_regions[splits[i] : splits[i + 1]]
        for i in range(part.num_tiles)
    ]
    assert sum(len(b) for b in bands) == len(store_regions)
    assert len(bands[-1]) == 0


def test_partition_grid_caps_and_factors():
    part = partition_grid(100, 100, 8)
    assert part.num_tiles <= 8
    assert part.rows == 100 and part.cols == 100
    # A ribbon grid cannot host a square factorisation; splits degrade to
    # the longer axis and never exceed the request.
    ribbon = partition_grid(4, 100, 9)
    assert ribbon.num_tiles <= 9
    with pytest.raises(ValueError):
        GridTilePartition(4, 4, 5, 1)
