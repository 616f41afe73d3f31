import pytest
from hypothesis import settings

from suffixbeam.encoding import build_vocabulary
from suffixbeam.eventlog import build_prefix_log
from suffixbeam.predictor import train_ngram
from suffixbeam.synthgen import SynthConfig, generate

# One profile for every property test: no per-example deadline, since a
# loaded machine would otherwise decide the result, and the failing
# example's reproduction blob in the report.
settings.register_profile("tier1", deadline=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def synth():
    """The default synthetic benchmark (1000 train / 200 exceptional test)."""
    return generate(SynthConfig())


@pytest.fixture(scope="session")
def synth_ngram(synth):
    vocab = build_vocabulary(synth.train_log)
    return train_ngram(build_prefix_log(synth.train_log), vocab, order=3, alpha=0.01)
