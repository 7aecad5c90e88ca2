"""Peak memory of the 10^6-row paths, by tracemalloc.

numpy reports its array allocations to tracemalloc, so each peak is an
exact count of bytes, the same on every host.  At 10^6 draws one float
array is 8 MB; each budget is a whole number of such arrays plus a margin
for the sampler blocks and the reader's work arrays.
"""

import tracemalloc

import numpy as np
import pytest

from clutterstats import _csv
from clutterstats import distributions as dist
from clutterstats.cli import main
from clutterstats.estimation import empirical_log_stats
from clutterstats.sampling import SplitMix64, sample
from clutterstats.verify import monte_carlo_checks

N = 10**6
MB = 10**6

def peak_bytes(f, *args):
    """f(*args)'s result and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_max", [4, 6, 8])
def test_log_stats_hold_two_arrays_whatever_the_order(n_max):
    # the logs and one power buffer: 16 MB, where the stacked powers took
    # 72 MB at order 4 and 104 MB at order 6
    values = sample(dist.GammaGamma(4.0, 2.0, 1.0), N, 1).values
    _, peak = peak_bytes(empirical_log_stats, values, n_max)
    assert 2 * 8 * MB <= peak <= 17 * MB


@pytest.mark.parametrize("spec,budget", [
    # one array of n: the boost U^(1/shape) multiplies the shape + 1 draws
    # in place, where a second array of n took 16.5 MB
    (dist.GammaPower(0.5, 1.0), 11 * MB),
    # speckle and texture, where the boosted texture took 24.5 MB
    (dist.GammaGamma(4.0, 0.5, 1.0), 19 * MB),
])
def test_boosted_gamma_draws_hold_one_array_per_factor(spec, budget):
    batch, peak = peak_bytes(sample, spec, N, 1)
    assert batch.values.size == N
    assert peak <= budget


@pytest.mark.parametrize("draw", [
    lambda: SplitMix64(1).gammas(4.0, N),
    lambda: sample(dist.Maxwell(1.0), N, 1),
], ids=["gammas", "maxwell"])
def test_a_sampler_holds_its_output_and_a_block(draw):
    # the 8 MB output and one block's temporaries, whatever n is
    _, peak = peak_bytes(draw)
    assert peak <= 10 * MB


def test_csv_writer_holds_one_chunk_of_buffers(tmp_path):
    # a chunk's work arrays, whatever the row count: 2.0 MB in chunks of
    # 4096 rows, of which the gather index (24 intp per float) is 0.8 MB;
    # 8192-row chunks took 4.5 MB, and the file is 4.4 MB
    n = 10**5
    batch = sample(dist.KAmplitude(2.0, 1.0), n, 1)
    _csv.format_rows([np.ones(1)])      # the tables, built on first use
    _, peak = peak_bytes(_csv.write_csv, tmp_path / "k.csv", "index,x,z",
                         [range(n), batch.values, batch.texture])
    assert (tmp_path / "k.csv").stat().st_size > 4 * MB
    assert peak <= 2.5 * MB


@pytest.fixture(scope="module")
def ggamma_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("memory") / "ggamma.csv")
    assert main(["sample", "--family", "ggamma", "--params", "L=4,M=2,mu=1",
                 "--n", str(N), "--out", path]) == 0
    return path


@pytest.mark.parametrize("n_max", [4, 6])
def test_log_stats_free_a_temporary_input_before_the_buffer(n_max):
    # the input and its logs, then the logs and the buffer: 16 MB with the
    # input counted, where 24 MB held all three
    values = sample(dist.GammaGamma(4.0, 2.0, 1.0), N, 1).values
    _, peak = peak_bytes(lambda: empirical_log_stats(values.copy(), n_max))
    assert 2 * 8 * MB <= peak <= 17 * MB


@pytest.mark.parametrize("n_max", [4, 6])
def test_log_stats_of_a_temporary_and_of_a_held_copy_agree(n_max):
    values = sample(dist.KAmplitude(2.0, 1.0), 10**5, 1).values
    held = empirical_log_stats(values, n_max)
    temporary = empirical_log_stats(values.copy(), n_max)
    for field in ("log_moments", "log_cumulants", "std_errors"):
        assert [v.hex() for v in getattr(temporary, field)] == \
            [v.hex() for v in getattr(held, field)], field
    assert temporary.n_samples == held.n_samples == 10**5


def test_monte_carlo_checks_free_the_draws_once_logged():
    # a compound draw while it is sampled, then the draws and their logs,
    # then the logs and the buffer; 24 MB while the draws outlived the logs
    outcomes, peak = peak_bytes(monte_carlo_checks)
    assert len(outcomes) == 5
    assert peak <= 18 * MB


def test_estimate_holds_two_arrays_of_the_column(ggamma_csv, capsys):
    # the column and its logs, then the logs and the buffer, plus the
    # reader's work arrays; 25 MB while the column outlived its logs
    code, peak = peak_bytes(main, ["estimate", "--family", "ggamma",
                                   "--input", ggamma_csv])
    capsys.readouterr()
    assert code == 0
    assert peak <= 18 * MB
