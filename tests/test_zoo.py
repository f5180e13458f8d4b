"""The seeded families of zoo.py, pinned: a sha256 over the emitted texts
of each family's instances in order, or over the repr of what is not an
instance (Q by its rows, a graph by its vertex count and arcs).  The digests
were recorded through the builders these families replaced, before they
moved into zoo.py, so they also say that the move kept every instance."""
import hashlib
import inspect
import random

import pytest

from qspath import InteractionMatrix, QsppInstance, emit_instance
from qspath import make_directed_cycle, make_grid, make_tournament
from qspath.generate import FILLS

import zoo

SIDES = [(p, q) for p in range(2, 6) for q in range(2, 6)]
ENDS = [(make_directed_cycle(5), 0, 3), (make_grid(3, 3), 0, 8), (make_tournament(4, 45), 2, 1)]
KNSTAR = [(4, {}), (4, zoo.SHORT_PATHS_COSTLY), (5, {((0, 1), (2, 1)): 5, ((0, 1), (1, 4)): 7})]
RANGES = ((0, 9), (0, 4), (0, 3), (-3, 3), (-4, 9), (-9, 9))

# each family's instances, drawn from random.Random(its name) where it
# takes a stream
FAMILIES = {
    "random_symmetric_interaction": lambda rng: [
        zoo.random_symmetric_interaction(m, rng, *r) for m in (0, 2, 9) for r in RANGES
    ],
    "random_costs": lambda rng: [zoo.random_costs(*ends, rng, top) for ends in ENDS for top in (9, 3)],
    "random_q": lambda rng: [zoo.random_q(*ends, rng) for ends in ENDS],
    "q_over": lambda rng: [
        zoo.q_over(zoo.filled_grid(3, 4, fill, 1), d, c)
        for fill in ("random", "weak-sum")
        for d in (1, 3)
        for c in (None, tuple(range(17)))
    ],
    "filled_grid": lambda rng: [
        zoo.filled_grid(p, q, fill, seed, top)
        for p, q in ((2, 2), (3, 4))
        for fill in sorted(FILLS)
        for seed, top in ((1, 9), (2, 3), (12, 999))
    ],
    "random_grid": lambda rng: [zoo.random_grid(p, q, rng.randint(0, 10**9)) for p, q in SIDES],
    "potential_shift": lambda rng: [zoo.potential_shift(make_grid(p, q), rng) for p, q in SIDES],
    "weak_sum_grid": lambda rng: [
        zoo.weak_sum_grid(p, q, rng.randint(0, 10**9), lo) for p, q in SIDES[:6] for lo in (0, -5)
    ],
    "weak_sum_matrix": lambda rng: [
        zoo.weak_sum_matrix([rng.randint(-9, 9) for _ in range(m)]) for m in (0, 1, 3, 12)
    ],
    "product_matrix_and_linear": lambda rng: [
        (q.rows, c) for q, c in (zoo.product_matrix_and_linear(range(m)) for m in (2, 9))
    ],
    "mixed_grid_instance": lambda rng: [zoo.mixed_grid_instance(rng, p, q) for p, q in SIDES * 2],
    "square_pair_planted_rows": lambda rng: [
        zoo.square_pair_planted_rows(make_grid(p, q), p, q, rng) for p, q in SIDES
    ],
    "exclusive_pair_entries": lambda rng: [zoo.exclusive_pair_entries(p, q, rng) for p, q in SIDES],
    "late_no_grid": lambda rng: [zoo.late_no_grid(p, q, s) for p, q in ((3, 5), (8, 8)) for s in (1, 2)],
    "knstar_instance": lambda rng: [zoo.knstar_instance(n, entries) for n, entries in KNSTAR],
    "random_knstar": lambda rng: [zoo.random_knstar(n, rng.randint(0, 10**9)) for n in (4, 5, 6)],
    "biased_k4": lambda rng: [zoo.biased_k4(rng, *b) for b in ((5, 30), (4, 25)) for _ in range(20)],
    "signed_redraw": lambda rng: [zoo.signed_redraw(zoo.random_grid(*pq, 1), rng) for pq in SIDES],
    "priced_walk_instances": lambda rng: [
        inst
        for walk in ("grid", "dag", "cyclic", "complete")
        for fill in zoo.PRICED_WALK_FILLS
        for inst in zoo.priced_walk_instances(walk, rng, fill)
    ],
    "agreement_instances": lambda rng: list(zoo.agreement_instances()),
    "bound_instances": lambda rng: list(zoo.bound_instances()),
    "reference_grids": lambda rng: zoo.reference_grids(),
    "reference_knstar": lambda rng: zoo.reference_knstar(),
    "reference_digraphs": lambda rng: zoo.reference_digraphs(),
    "reference_priced_walk": lambda rng: zoo.reference_priced_walk(),
    "every_family": lambda rng: zoo.every_family(),
    "fill_graphs": lambda rng: [(g.n, g.arcs) for g in zoo.fill_graphs()],
}

DIGESTS = {
    "agreement_instances": "057735614977cbfb1cbf545575e3d7d45dca3b96f32991848ecba44f5ddc4db4",
    "biased_k4": "cd6fbd687037000f92824658b4e0e0cceabc3c6163bdabed21a0ad382e3d49a1",
    "bound_instances": "a29831a1d18963b5e4522846cc88fa33db4597d855ca5aa8fd089dad46669480",
    "every_family": "ecf38f84c7e96bdd04e3b729027073d1d018c766e4846d5cace1b078cdd6f87b",
    "exclusive_pair_entries": "d700778f6a3a7a666510cf248237cc6c7797f6ca5fe0402ee9f6ccbe45e5807f",
    "fill_graphs": "50c26daee987264ac4cc059a8aa67ae0223fb0a842bc28a725c4fa43b97e305c",
    "filled_grid": "29bc4f4d2d3a4a5d83a022080a45bfad1838e16872d33070fd69edff4f50cbb7",
    "knstar_instance": "8699d76c6b3d24bb746b1931c6f2cdb0041dd941fb00bf7e0203b0a131758604",
    "late_no_grid": "e4b79d0e03f17619064e562188ab8f614f3a33354e3818d1bdc9f3526ff8ce90",
    "mixed_grid_instance": "5f3be576bca8a9b8255911d6727f613f1264dacf2b64e8eeabd59b85cd8278df",
    "potential_shift": "0499e99c63e8a4bb81f5efb1839d39e633f35ca37e4a258a3d22be8466a609d7",
    "priced_walk_instances": "65eb2d439e76477248dd601b99aa3e1949fb93f65df2e5f74ee0ce7e911d9329",
    "product_matrix_and_linear": "7198ea1b24f57d0d6e5601a8f50710e457772e79443aa496ed76b028faa021f1",
    "q_over": "f4e702d5c54cacca39601654398efad5139f2fc6f48e3f475519153105ca32f9",
    "random_costs": "4114cdb7cd0f0fc9d94815b454fda7463706a4acb2f72449dad7e468a94b08f5",
    "random_grid": "4993e52831cfa77f988301e74c8df6a61c1840b97e2e9f9910d2bb81b10a721d",
    "random_knstar": "2f56497cea963abe9cc137f921ea40648c8bdefb4e4e7449b1c6334421015f4d",
    "random_q": "1076a44f80480453c669c66375f64df7930964cf935fe0a3e7e64bb0b43626f3",
    "random_symmetric_interaction": "945574e3bc880fc202280189a72e72c3fbdc076f37f19577101353440a3c53aa",
    "reference_digraphs": "8d86455ab446762d05a9ab92daee7dc595eb799027aacbfad7cc829d4942c04f",
    "reference_grids": "f6d79943dde3c6f9067b6fb014d5ff48adccf86c86333b826be4ff0bf67dff4a",
    "reference_knstar": "3ab0820e9ffd68bbfd10bb8d170fbf755ac3140b1a262f7cd4eb3be8ad9f3197",
    "reference_priced_walk": "b8948113bd9505cf67983d8b14f99619b651b7c4bbc64d076160855b2fee6ea6",
    "signed_redraw": "f0f1a52158c0e8285fdc5dc98b7b622244dd827a2a42c04795d3b639e536c147",
    "square_pair_planted_rows": "a83886a5dbaf26a1fcbf8429f8d7b35cf767deed87ee98bb221999e823e1e344",
    "weak_sum_grid": "957cbaa3505cf88c63c84699e8c6837803a76e298513f699cdaa04751fb7a50b",
    "weak_sum_matrix": "9b9708fe7c8f10a968dfeee8d61d2144177147e05071397a179403cf56cafa17",
}

# the public parts the families are assembled from, pinned through them;
# the private ones are pinned through the one family that calls each
PARTS = {"all_pairs", "grid_instance"}


def _text(item) -> str:
    if isinstance(item, tuple) and isinstance(item[0], str):  # (kind, instance)
        return item[0] + _text(item[1])
    if isinstance(item, QsppInstance):
        return emit_instance(item)
    return repr(item.rows if isinstance(item, InteractionMatrix) else item)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_draws_its_pinned_instances(family):
    digest = hashlib.sha256()
    for item in FAMILIES[family](random.Random(family)):
        digest.update(_text(item).encode())
    assert digest.hexdigest() == DIGESTS[family]


def test_every_builder_is_pinned():
    functions = inspect.getmembers(zoo, inspect.isfunction)
    public = {name for name, f in functions if f.__module__ == "zoo" and name[0] != "_"}
    assert public - PARTS == set(FAMILIES)
