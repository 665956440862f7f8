"""The packages' public names, which resolve on first use (PEP 562)."""

import importlib

import pytest

# Each package's __all__ as it was when the packages imported every
# submodule up front; resolving names lazily must keep all of them.
PUBLIC_NAMES = {
    "hawkesflow": [
        "events", "simulate", "estimate", "whsolve", "report",
        "build_linlog_grid", "build_quadrature", "__version__"],
    "hawkesflow.events": [
        "BinningMode", "BinningScheme", "EventTable", "EventType", "FlowStatistics",
        "MultivariateEventStream", "Session", "Side", "load_binning_scheme",
        "read_event_csv", "save_binning_scheme", "write_event_csv",
        "assign_components", "combine_streams", "filter_session",
        "randomize_timestamps", "flow_statistics"],
    "hawkesflow.simulate": [
        "ExponentialKernel", "KernelSpec", "PowerLawKernel",
        "SumOfExponentialsKernel", "TabulatedKernel", "ZeroKernel",
        "kernel_from_dict", "HawkesModel", "ModelFlavor", "load_model",
        "mean_intensity", "save_model", "spectral_radius", "simulate"],
    "hawkesflow.estimate": [
        "LinLogGrid", "build_linlog_grid", "ConditionalLawMatrix",
        "estimate_conditional_law", "estimate_mean_intensity", "load_claw",
        "save_claw"],
    "hawkesflow.whsolve": [
        "QuadratureGrid", "build_quadrature", "KernelEstimate",
        "NegativityReport", "exogeneity_ratios", "recover_baseline",
        "rescaled_norms", "save_kernel_estimate", "solve_wiener_hopf",
        "verify_negativity_propagation"],
}


@pytest.mark.parametrize("package", PUBLIC_NAMES)
class TestPublicNames:
    def test_all_is_unchanged(self, package):
        assert sorted(importlib.import_module(package).__all__) == \
            sorted(PUBLIC_NAMES[package])

    def test_every_name_resolves(self, package):
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            value = getattr(pkg, name)
            if name != "__version__":
                assert getattr(value, "__module__", value.__name__) \
                    .startswith("hawkesflow.")

    def test_star_import_binds_every_name(self, package):
        pkg = importlib.import_module(package)
        namespace = {}
        exec(f"from {package} import *", namespace)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name)

    def test_unknown_name_raises_attribute_error(self, package):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name
        assert not hasattr(pkg, "no_such_name")
