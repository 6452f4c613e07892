"""One inference path: a single request is a fused-engine batch of one.

``RTPService.handle`` answers through the same build-and-infer core as
``handle_batch``, so for every request and on both kernel backends:

* ``handle(r)`` is bitwise ``model.predict(builder.build(r))`` -- the
  Tensor forward stays the conformance oracle;
* ``handle(r)`` is bitwise ``handle_batch([r])[0]``;
* ``handle(r)`` dispatches into :mod:`repro.kernels`, exactly as many
  times as ``handle_batch([r])`` does.
"""

import numpy as np
import pytest

from repro import kernels
from repro.core import M2G4RTP, M2G4RTPConfig
from repro.service import RTPRequest, RTPService


@pytest.fixture(scope="module")
def model():
    return M2G4RTP(M2G4RTPConfig(hidden_dim=16, num_heads=2,
                                 num_encoder_layers=2, seed=11))


@pytest.fixture(scope="module")
def sample_requests(dataset):
    instances = list(dataset)
    picks = np.random.default_rng(7).choice(len(instances), size=16,
                                            replace=False)
    return [RTPRequest.from_instance(instances[int(i)]) for i in picks]


def assert_same_answer(response, route, eta, aoi_route, aoi_eta):
    assert np.array_equal(response.route, route)
    assert np.array_equal(response.eta_minutes, eta)
    if aoi_route is None:
        assert response.aoi_route is None and response.aoi_eta_minutes is None
    else:
        assert np.array_equal(response.aoi_route, aoi_route)
        assert np.array_equal(response.aoi_eta_minutes, aoi_eta)


@pytest.mark.parametrize("backend", kernels.BACKENDS)
class TestSinglePathParity:
    def test_handle_is_bitwise_tensor_predict(self, backend, model,
                                              sample_requests):
        service = RTPService(model)
        with kernels.backend_scope(backend):
            for request in sample_requests:
                oracle = model.predict(service.builder.build(request))
                assert_same_answer(service.handle(request), oracle.route,
                                   oracle.arrival_times, oracle.aoi_route,
                                   oracle.aoi_arrival_times)

    def test_handle_is_bitwise_batch_of_one(self, backend, model,
                                            sample_requests):
        service = RTPService(model)
        with kernels.backend_scope(backend):
            for request in sample_requests:
                batched = service.handle_batch([request])[0]
                assert_same_answer(service.handle(request), batched.route,
                                   batched.eta_minutes, batched.aoi_route,
                                   batched.aoi_eta_minutes)

    def test_handle_dispatches_kernels(self, backend, model, sample_requests,
                                       kernel_dispatches):
        service = RTPService(model)
        with kernels.backend_scope(backend):
            for request in sample_requests[:4]:
                kernel_dispatches.clear()
                service.handle(request)
                single = list(kernel_dispatches)
                kernel_dispatches.clear()
                service.handle_batch([request])
                assert single and single == kernel_dispatches
                assert set(single) == {backend}
