"""Tests for Min-Min, Max-Min, Sufferage and the immediate-mode heuristics."""

import hashlib

import numpy as np
import pytest

from repro.heuristics import build_schedule
from repro.model.benchmark import BRAUN_INSTANCE_NAMES, generate_braun_like_instance
from repro.model.instance import SchedulingInstance
from repro.model.schedule import Schedule


@pytest.fixture
def two_machine_instance():
    """ETC chosen so the optimal decisions are easy to reason about."""
    etc = np.array(
        [
            [1.0, 10.0],
            [2.0, 8.0],
            [9.0, 3.0],
            [10.0, 4.0],
        ]
    )
    return SchedulingInstance(etc=etc, name="two-machines")


class TestMinMin:
    def test_small_example(self, two_machine_instance):
        schedule = build_schedule("min_min", two_machine_instance)
        # Jobs 0/1 prefer machine 0, jobs 2/3 prefer machine 1; Min-Min keeps
        # that split because the loads stay balanced.
        assert schedule.assignment.tolist() == [0, 0, 1, 1]

    def test_beats_random_and_olb(self, small_instance):
        min_min = build_schedule("min_min", small_instance)
        olb = build_schedule("olb", small_instance)
        random_schedule = Schedule.random(small_instance, rng=0)
        assert min_min.makespan <= olb.makespan
        assert min_min.makespan <= random_schedule.makespan

    def test_is_best_constructive_on_consistent_instance(self, consistent_instance):
        makespans = {
            name: build_schedule(name, consistent_instance, rng=0).makespan
            for name in ("min_min", "max_min", "mct", "olb", "met")
        }
        assert makespans["min_min"] <= min(makespans["olb"], makespans["mct"]) + 1e-9


class TestMaxMin:
    def test_schedules_long_jobs_first(self, two_machine_instance):
        schedule = build_schedule("max_min", two_machine_instance)
        schedule.validate()
        # Every job still lands on a sensible machine.
        assert schedule.assignment.min() >= 0

    def test_differs_from_min_min_in_general(self, small_instance):
        min_min = build_schedule("min_min", small_instance)
        max_min = build_schedule("max_min", small_instance)
        assert not np.array_equal(min_min.assignment, max_min.assignment)


class TestSufferage:
    def test_prioritizes_high_sufferage_jobs(self):
        # Job 1 suffers enormously if it misses machine 0; job 0 barely cares.
        etc = np.array(
            [
                [5.0, 6.0],
                [1.0, 100.0],
            ]
        )
        instance = SchedulingInstance(etc=etc)
        schedule = build_schedule("sufferage", instance)
        assert schedule.assignment[1] == 0

    def test_reasonable_quality(self, small_instance):
        sufferage = build_schedule("sufferage", small_instance)
        olb = build_schedule("olb", small_instance)
        assert sufferage.makespan <= olb.makespan * 1.2


class TestImmediateModeHeuristics:
    def test_met_picks_fastest_machine_per_job(self, tiny_instance):
        schedule = build_schedule("met", tiny_instance)
        expected = tiny_instance.etc.argmin(axis=1)
        assert np.array_equal(schedule.assignment, expected)

    def test_met_overloads_fastest_machine_on_consistent_matrix(self, consistent_instance):
        schedule = build_schedule("met", consistent_instance)
        # On a consistent matrix machine 0 is fastest for every job.
        assert set(schedule.assignment.tolist()) == {0}

    def test_mct_accounts_for_load(self, consistent_instance):
        mct = build_schedule("mct", consistent_instance)
        met = build_schedule("met", consistent_instance)
        assert mct.makespan < met.makespan

    def test_olb_balances_job_counts(self, small_instance):
        olb = build_schedule("olb", small_instance)
        counts = olb.machine_job_counts()
        assert counts.max() - counts.min() <= small_instance.nb_jobs // 2

    def test_mct_processes_jobs_in_submission_order(self):
        """The first job always goes to its own best (empty-grid) machine."""
        etc = np.array([[5.0, 1.0], [1.0, 5.0], [1.0, 5.0]])
        schedule = build_schedule("mct", SchedulingInstance(etc=etc))
        assert schedule.assignment[0] == 1


class TestRandomAssignment:
    def test_uses_rng(self, tiny_instance):
        a = build_schedule("random", tiny_instance, rng=1)
        b = build_schedule("random", tiny_instance, rng=2)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_spread_over_machines(self, small_instance):
        schedule = build_schedule("random", small_instance, rng=3)
        assert np.unique(schedule.assignment).size > 1


def pinned_instances():
    """The instances the batch-mode assignment digests were recorded on.

    The 12 Braun-like instances at 128 x 8, twenty tie-heavy 40 x 5 ETCs
    (values 1-3, integer ready times 0-2) where the tie order decides
    almost every pick, and the one-job and one-machine edges.
    """
    instances = {
        name: generate_braun_like_instance(name, rng=1, nb_jobs=128, nb_machines=8)
        for name in BRAUN_INSTANCE_NAMES
    }
    for seed in range(20):
        rng = np.random.default_rng(seed)
        etc = rng.integers(1, 4, size=(40, 5)).astype(float)
        ready = rng.integers(0, 3, size=5).astype(float)
        instances[f"ties-{seed:02d}"] = SchedulingInstance(etc=etc, ready_times=ready)
    instances["one-job"] = SchedulingInstance(
        etc=np.array([[4.0, 2.0, 3.0, 2.0]]), ready_times=np.array([0.0, 1.0, 0.0, 0.0])
    )
    instances["one-machine"] = SchedulingInstance(
        etc=np.array([[3.0], [1.0], [2.0], [1.0], [3.0], [2.0]]),
        ready_times=np.array([2.0]),
    )
    return instances


@pytest.fixture(scope="module")
def pinned():
    return pinned_instances()


def assignment_digest(schedule):
    """sha256 of the assignment vector's int64 bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(schedule.assignment, dtype=np.int64).tobytes()
    ).hexdigest()


#: Batch-mode assignment digests (see :func:`assignment_digest`), recorded
#: on the three per-heuristic loops that preceded the shared kernel; every
#: decision, tie order included, must stay the same.
GOLDEN_ASSIGNMENTS = {
    ('max_min', 'one-job'): '35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b',
    ('max_min', 'one-machine'): '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
    ('max_min', 'ties-00'): '77d7e7561ab33613b85f9b94131d60754552c59749838e3b85e3a9b0536ef0ed',
    ('max_min', 'ties-01'): '9a0da92dec29dab372882a3fbbf853f453840a7af5aecb7b69d1c2f42f899a5d',
    ('max_min', 'ties-02'): '99ff1e0d7719126d20e339a54bbb702a2e103007da255febedf8abc1febdd396',
    ('max_min', 'ties-03'): '38fa34718c398d5bb23e21a80ea6d97efa36cfc2d16cde8563e3da7cd05b5949',
    ('max_min', 'ties-04'): '579dd905e924be5f7eff32004b6d1a7580d16b15d3223c22da71dd35fc339efe',
    ('max_min', 'ties-05'): 'afcc0a57f7397e6cb7c07b6962f805f31bece8dda06d2b5f8570c5cc8d2bf798',
    ('max_min', 'ties-06'): '5513426932b004515093fd9a29618b45e3afd4dc8f63bebbfc3bb93b88767f39',
    ('max_min', 'ties-07'): 'e766e70d818dc68af919e472fe31d99d45716b25fb3384995ff55ea33e92d1ae',
    ('max_min', 'ties-08'): '4929f72209b5692f6d9c3cfcabf6197a99b8b99c5efb264829769ff468219bac',
    ('max_min', 'ties-09'): 'e46d35bc63fb2636b327dd1f6f59d1c305e845ba334c8869cc25d85e8d06014a',
    ('max_min', 'ties-10'): '59157a7ab12cd633a6087ac91bdac81b58627f8ba2ef4509dbc80153abdf3513',
    ('max_min', 'ties-11'): '4139464f63af5703499c266da0c629026f9374f74dd499b18e733d22fead5801',
    ('max_min', 'ties-12'): '7006a8eba9b83bc91982f0a830245b4ad852521f39f008e37f57e128392372b9',
    ('max_min', 'ties-13'): 'd04c200874c0866ca04c97f97080c694b0f573796998ee5ae3ed27b67f603702',
    ('max_min', 'ties-14'): 'ea17f8e9ea4478de5d84294aa754f3f8615764515e133f87b00aa5791fce8226',
    ('max_min', 'ties-15'): '88bf37949102e03d1c9a359ded56067cbe127c72acafa726ecf7f34839dedac0',
    ('max_min', 'ties-16'): '5e86629a5fc78a5df4cc867d33fa642a551d5d7dac896c2942d473386cd8f845',
    ('max_min', 'ties-17'): '4a30abf25e0b1cd91c81d615485421430bfd771d681742ea306ae8d0e7a384ff',
    ('max_min', 'ties-18'): 'fc538d5e3193f82749d7703252aa38303e015ae38d63fd6c551799b4cd6866b8',
    ('max_min', 'ties-19'): '11222950d01ffc36f1d880b3c6a7ebe8bc0f96861219c1f083eb8cb57dcc17ee',
    ('max_min', 'u_c_hihi.0'): 'c2de240140cfc7d05e8f7f836277cf97ea7fcd7c0e3f2fac6e02d8948bccac6e',
    ('max_min', 'u_c_hilo.0'): 'f2ca0e669435b9f3efe28a2439cfdcdb659e513ff38a72f2fc99f8a9e740c688',
    ('max_min', 'u_c_lohi.0'): '35547aeb5a5ae977f5e0399c94054272c572229e6b133e48174d8e9f2f9b5db1',
    ('max_min', 'u_c_lolo.0'): '2b8f526317f1ff6c429bfe21b7ec185bff57483e577dcf2e2a34dd5ddab16f1a',
    ('max_min', 'u_i_hihi.0'): '7cce3f8dfb3ff27f11a80e9e860f5041b07d2daf54cd08f03acef4c39a972bc8',
    ('max_min', 'u_i_hilo.0'): '77b1fdd4303a0851b35a39c6e8da48a7e15a11ec1e968077c353b14f6ca056f9',
    ('max_min', 'u_i_lohi.0'): 'd4e64e8c05016dee6a50fec2fe48acfc611aacc3499bdc941e196d4b8dac724b',
    ('max_min', 'u_i_lolo.0'): '0e801f6c0bd4d2b56791caecc400fe681dc11c9eecc7b414cb31e558c4989930',
    ('max_min', 'u_s_hihi.0'): '104941932303a8753a08a937ee14419445a3e2215137556c5b6b5b5805115759',
    ('max_min', 'u_s_hilo.0'): '8d4163a360e1bee8cafd8dcb4ead348561982d7d288e1d185910326abc738cf4',
    ('max_min', 'u_s_lohi.0'): 'e1a62ab171371024516126746f356446ffa4f92473660c37b90178d5330245eb',
    ('max_min', 'u_s_lolo.0'): 'c7c12c53ff1954f15e60061aa045401e74377a6b5c50269f9c23bbb7d7996f5f',
    ('min_min', 'one-job'): '35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b',
    ('min_min', 'one-machine'): '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
    ('min_min', 'ties-00'): '51a967f68696c1c29fcb37581eb1f94b859012a5d03ca3a64e9c81ff7cb8eb96',
    ('min_min', 'ties-01'): '52588c90fc72e8e55e1937e58802276149a65a9e5537f7224824b72ded2c38a6',
    ('min_min', 'ties-02'): 'dbe5eab7823c7d09ca2c1f950855f8f196abee796fc1e14c715c1504d791d5a5',
    ('min_min', 'ties-03'): '79e66ec833bbd1773f65957270653b7ab070be7e72530ceca7dec1f53c390917',
    ('min_min', 'ties-04'): '2b71fd224c38c6a4d13bce6d3600c9754f3695ea3e99eb1ef7e04f34b13c635b',
    ('min_min', 'ties-05'): '0c4e1e0f5f89ed93754fd2ab3ae5b3253da1c59ee42c9112fb0c66fd9bb299ea',
    ('min_min', 'ties-06'): '832b6055331d17da3e17fba709054fa443880be59878b1db0f455cf3ace3e9a0',
    ('min_min', 'ties-07'): '8406363ad492f0e437b61906ced4f628fe5d8f2c333f36b5865e38d4de098915',
    ('min_min', 'ties-08'): 'b7cf528ab3fb41ed812537665a4eac34945edab9e31f87344f372cfe13f211bb',
    ('min_min', 'ties-09'): '233d15d32444557e04524352fbabc8c7e3e95057c71f82054d8fe288de1d866e',
    ('min_min', 'ties-10'): '44ca19562cf88091c6735d8ba60e32091344a90db0b5e231375c2f824f915420',
    ('min_min', 'ties-11'): 'b64bcdec081f066a4c81763caf311669b9a2ef8d60d028a3dad26bcd81ff8480',
    ('min_min', 'ties-12'): '81c466a21ad5185c45f9c7df8ad202cd2c77745019ba668518ad4787130182da',
    ('min_min', 'ties-13'): '9769cf1809f2cdf11a5c09c9a3b3981ab8c2423d050d60b7c0beb34fcb29ec4d',
    ('min_min', 'ties-14'): 'fe06481c82a22bc89ac7823bbf14300740cfb7ab6b3697b134cd23cf74897b9d',
    ('min_min', 'ties-15'): '79b7a7a9995008780e5c969a9a8e671dea349f03c43b21b9ee29dbf18a3f63b1',
    ('min_min', 'ties-16'): '3530e11ee4a45f3b358eec8d538d4434e01655b21ce3fa5ffcd04d1914f8422f',
    ('min_min', 'ties-17'): 'f2fec79cee43261bbc77b75d0b6a737ab3ca6e91b74c95cacf4528cdf0a9ac49',
    ('min_min', 'ties-18'): '7465c5e30043eb253569de1a7a8c020c95efafefd59d20aaf96d12771bf22299',
    ('min_min', 'ties-19'): '8abb9662e5bfe4bf8b7fb09c59081ae0651f3580cad6ff87fb5556ffd1514d1c',
    ('min_min', 'u_c_hihi.0'): '28dda8f1ea0df1ff60ad70da1ee2d5ebaee4c1534c7ed1583bf1becbb55c05dd',
    ('min_min', 'u_c_hilo.0'): 'ccb008687b1c0027dd1a1a2d4a1e1b48e5916c82096f87320cdce7fa56a39128',
    ('min_min', 'u_c_lohi.0'): 'e26af7a78fc35c481de7f069ffac9af93a9d84ec1b9aaa93942965ee41834094',
    ('min_min', 'u_c_lolo.0'): 'b5f2ba15caf17103e536c263380a6bd0cedfb6139e6c20e2fab1ff22b74858f9',
    ('min_min', 'u_i_hihi.0'): '61bd83afd3c096093e911782c7895083a8a74a44b8f2069cc6ef7ce383e5920c',
    ('min_min', 'u_i_hilo.0'): '1fffedfd1a9d41e2144f8718d8a57a338c1aa8895ed483125c3d8db9ce434ecc',
    ('min_min', 'u_i_lohi.0'): 'd08d86f34b027348251b701a3bed31ceb1fcea6657a22f7487d23f534b6b405f',
    ('min_min', 'u_i_lolo.0'): 'f2175c94b77c4e45bf9200e37fb18f6580508dbe8be8f77d1cb955e83942362f',
    ('min_min', 'u_s_hihi.0'): 'ebc16d73186b8ca91b85020b9a48e3c56ea0973a5914612aa95b74ea88b1ff0e',
    ('min_min', 'u_s_hilo.0'): '84a63c142404a862a38a1940b626334ceb7bd8d3be3a0643a6741418c19a2d64',
    ('min_min', 'u_s_lohi.0'): '3bc9b07fc521ae1d714fc0f7090017e41ba98b074c61965273f435440f5a7f75',
    ('min_min', 'u_s_lolo.0'): '48c3b66f59bf3aececa512a8bc20771578ec97f99de13327224e0d9c207d4e9e',
    ('sufferage', 'one-job'): '35be322d094f9d154a8aba4733b8497f180353bd7ae7b0a15f90b586b549f28b',
    ('sufferage', 'one-machine'): '17b0761f87b081d5cf10757ccc89f12be355c70e2e29df288b65b30710dcbcd1',
    ('sufferage', 'ties-00'): '44ad81280a49d6fc2742ca1491ac4eaf8c2becc1edecbe17d2de12da97efd338',
    ('sufferage', 'ties-01'): '032690763687ed886a478795bfd78b74e59b0894ba2853eaa4e4a40036e4719a',
    ('sufferage', 'ties-02'): '5985fea41feff340144c3f7b8a695bdfaf4ae93da16564e84943514260fc79da',
    ('sufferage', 'ties-03'): 'ddedb4993fc734e9f526389e88d65ef0716ee492d579e0453c1e91765e80e9ee',
    ('sufferage', 'ties-04'): '0f46243ff4011b90c4c48c313f550289bffe1d5ae4449656f3404e10f0dd49a6',
    ('sufferage', 'ties-05'): '45ddd17b5efd365105f4e5aa2ddd01847a102dd865e0a0c69d65aecd083a86a2',
    ('sufferage', 'ties-06'): 'fdcb2491de4485e4920f1b011c3d1563c9c47506eb3ce3639415528806fd07ad',
    ('sufferage', 'ties-07'): '05c9a168ccf14d4a780569cfdfde521c5cb13160a99bf98f0466e428b00b22fc',
    ('sufferage', 'ties-08'): '2fd3ff93cd0baed8f1b9c931ac45b93bcf88269d75a1168510b595a4e9770e6f',
    ('sufferage', 'ties-09'): '8dee62f74b92a41ec9cf51222244d6015d91fa86260a04bb7db48c74aff7ba32',
    ('sufferage', 'ties-10'): '0de508e20a65562e7309d17a4e9fce47dce8fb0f58ecfb4b848197900c256ed8',
    ('sufferage', 'ties-11'): '4db9cc2eb4c09c932a3856f18ea98ca9c4e47a457de5cbb199ebe9958d19839c',
    ('sufferage', 'ties-12'): 'b903f0152a202b4892cee3e339238077e6a615d189585885a05760b61afc54e8',
    ('sufferage', 'ties-13'): 'e3b4c86a9fde9d0d70ed70c62b8dfabbc3208fe73d4000972d73a50c6e0d6b1a',
    ('sufferage', 'ties-14'): 'a2bd75463c453a1bfa2ca54cf44a83b4774fbb91757163f44c0a9beecd6ee512',
    ('sufferage', 'ties-15'): '79a23b853ae6d29774010290c497da88f4bcfe72c2020a21297099cb4406f1b1',
    ('sufferage', 'ties-16'): '560c0b990446d204a1ee5cdd3ba67d7a176e5b5d8c2e332b0eea9ce7c8dfa573',
    ('sufferage', 'ties-17'): 'fc58246d992a7dedc7822db79fe031db1a4f4a8936ca117ba087d2fa8f29fd4e',
    ('sufferage', 'ties-18'): '59a71f2d5c88aa6b7cabb7a25cb1eafafbebf32f5fff7315411791d89ceef62c',
    ('sufferage', 'ties-19'): '3cd7019d086cb21caf003dcaf7579f761a2fbcae6284bb8f89f1cd5d68da53b0',
    ('sufferage', 'u_c_hihi.0'): '72303574063047063ef83ef94e74fead22f3ddd28c8e01743e1f7ba4b5525740',
    ('sufferage', 'u_c_hilo.0'): '0dedf28ea66904bcd55850790b90fca4fbc738c3e9e1d39710ee5e2aa310ef6a',
    ('sufferage', 'u_c_lohi.0'): 'ecf2eabecd987e8b2695a79f8299b3e63065df3570f8f9cc01deb9baee3919f7',
    ('sufferage', 'u_c_lolo.0'): '928a6528a2038e1935bb3cbf9242b774a7abd2d2c814decb7122c080be5ab55e',
    ('sufferage', 'u_i_hihi.0'): 'f2f392d8693b8b762de0a1d7aac025a94e12ff49ad1f8df5331ad9e4f7241f88',
    ('sufferage', 'u_i_hilo.0'): '1388be429f2d4885abf3b67bf7ff747600b9ae27daa9fe7adadcf5fff0e46e32',
    ('sufferage', 'u_i_lohi.0'): '065320c37e61b22f2e5407fa9c1564ec862a5bb9203f6917fbeeee9ff041247f',
    ('sufferage', 'u_i_lolo.0'): '0d5424a83530967002f316da83e69e69c6dc0fc71f2021e3a1067c87bac01141',
    ('sufferage', 'u_s_hihi.0'): '9af907d9949c289d93b31a1da7579f472d0e967944af84c99c10c7a4be351db1',
    ('sufferage', 'u_s_hilo.0'): '599f954750576d8a758f8ec24ad8efc12b92a157339419138204ec54767be421',
    ('sufferage', 'u_s_lohi.0'): 'b22a4d2c844b2079dcd149b302d66fcc1880cbb71f189421de65bca9002bec4d',
    ('sufferage', 'u_s_lolo.0'): 'e7c7a66887c612dbe4d4de13e1748e471d70ecebc4d337f8927c92a63b0cd618',
}


@pytest.mark.parametrize("name,instance_name", sorted(GOLDEN_ASSIGNMENTS))
def test_batch_mode_assignments_are_pinned(pinned, name, instance_name):
    schedule = build_schedule(name, pinned[instance_name])
    assert assignment_digest(schedule) == GOLDEN_ASSIGNMENTS[(name, instance_name)]
