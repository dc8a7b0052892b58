import numpy as np
import pytest

import nfclab as nl


@pytest.fixture(scope="session")
def los_scene():
    return nl.load_preset("los_lab")


@pytest.fixture(scope="session")
def olos_scene():
    return nl.load_preset("olos_baffle")


@pytest.fixture(scope="session")
def los_table(los_scene):
    return nl.path_table(los_scene)


@pytest.fixture(scope="session")
def olos_table(olos_scene):
    return nl.path_table(olos_scene)


@pytest.fixture(scope="session")
def los_cfr(los_scene, los_table):
    return nl.synthesize_cfr(los_scene, los_table)


@pytest.fixture(scope="session")
def olos_cfr(olos_scene, olos_table):
    return nl.synthesize_cfr(olos_scene, olos_table)


@pytest.fixture(scope="session")
def los_stats(los_cfr, los_scene, los_table):
    return nl.compute_stats(los_cfr, los_scene, los_table)


@pytest.fixture(scope="session")
def olos_stats(olos_cfr, olos_scene, olos_table):
    return nl.compute_stats(olos_cfr, olos_scene, olos_table)


@pytest.fixture(scope="session")
def shadow_nu(olos_scene):
    """Center-frequency Fresnel parameter of every element's direct path."""
    lam_c = olos_scene.sweep.lambda_center
    table = nl.path_table(olos_scene)  # row n - 1 is element n's direct path
    edge_ptr = table.edge_ptr[:olos_scene.array.n_elements + 1]
    out = []
    for start, end in zip(edge_ptr[:-1], edge_ptr[1:]):
        out.append(table.edge_geo[start] / np.sqrt(lam_c) if end > start else -np.inf)
    return np.array(out)
