import numpy as np
import pytest

from dvpt import DvptConfig, VitConfig, worker


@pytest.fixture
def desk_cfg():
    return VitConfig(image_h=16, image_w=16, channels=1, patch_size=4,
                     embed_dim=32, depth=4, heads=4, num_classes=5)


@pytest.fixture
def desk_dvpt():
    return DvptConfig(num_prompts=8, hidden_dim=4, share_every=1, gate_init=0.3)


@pytest.fixture
def paper_cfg():
    return VitConfig(image_h=224, image_w=224, channels=3, patch_size=16,
                     embed_dim=768, depth=12, heads=12, num_classes=5)


@pytest.fixture
def jobs(monkeypatch):
    """A one-item list counting the jobs submitted to the package's worker
    during the test (across all of a hypothesis test's examples)."""
    count = [0]
    submit = worker.submit

    def counted(fn):
        count[0] += 1
        return submit(fn)

    monkeypatch.setattr(worker, "submit", counted)
    return count


def finite_diff(fn, arr, step=1e-5):
    """Central finite differences of a scalar function wrt every entry of
    ``arr`` (mutated in place and restored)."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        up = fn()
        flat[i] = orig - step
        down = fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * step)
    return grad


def rel_err(a, b, floor=1e-8):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
