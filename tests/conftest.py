import pytest

from abo.gp import GaussianProcess


@pytest.fixture
def full_passes(monkeypatch):
    """[queries, retained] of every full posterior pass; a pass is retained
    when the carried scan it was made for holds V."""
    calls = []
    full_pass = GaussianProcess._posterior_pass
    carried_scan = GaussianProcess._carried_scan

    def counting(self, Xq):
        calls.append([Xq, False])
        return full_pass(self, Xq)

    def carrying(self, cand):
        start = len(calls)
        scan = carried_scan(self, cand)
        for call in calls[start:]:
            call[1] = scan.V is not None
        return scan

    monkeypatch.setattr(GaussianProcess, "_posterior_pass", counting)
    monkeypatch.setattr(GaussianProcess, "_carried_scan", carrying)
    return calls
