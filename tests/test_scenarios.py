import pytest

from apresidues import bigmod, residues, scenarios
from apresidues.bigmod import is_prime, multiplicative_order
from apresidues.scenarios import (
    DISCREPANCY,
    FAIL,
    PASS,
    list_scenarios,
    parse_integer_expr,
    run_scenario,
)

from conftest import P24, P24_FACTORS, P48, P48_FACTORS, P128, P128_FACTORS


class TestParseIntegerExpr:
    def test_expressions(self):
        assert parse_integer_expr("10^24+7") == 10**24 + 7
        assert parse_integer_expr("2^128+51") == 2**128 + 51
        assert parse_integer_expr("2^10-1") == 1023
        assert parse_integer_expr("41") == 41
        assert parse_integer_expr(" 10^48 + 217 ") == 10**48 + 217

    def test_rejects_garbage(self):
        from apresidues.errors import DomainError

        with pytest.raises(DomainError):
            parse_integer_expr("10^24+7+1")
        with pytest.raises(DomainError):
            parse_integer_expr("x")


class TestFixtureFactorizations:
    @pytest.mark.parametrize("p,factors", [(P128, P128_FACTORS), (P48, P48_FACTORS), (P24, P24_FACTORS)])
    def test_products_and_primality(self, p, factors):
        prod = 1
        for q, e in factors.items():
            assert is_prime(q), q
            prod *= q**e
        assert prod == p - 1


class TestScenarios:
    def test_listing(self):
        assert list_scenarios() == [
            "example-11.1", "example-11.2", "example-9.1", "example-9.2", "f41",
        ]

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            run_scenario("example-0")

    def test_example_9_1(self):
        r = run_scenario("example-9.1")
        assert r.passed
        by_label = {row.label: row for row in r.rows}
        assert by_label["x"].status == PASS
        assert by_label["main_term"].status == PASS
        assert by_label["unweighted_by_loglog"].status == PASS
        # composite 87 in the printed prime table
        assert by_label["R3:87"].status == DISCREPANCY
        assert "composite" in by_label["R3:87"].note
        # 151 and 271 are class errors (3 mod 4 in the 1 mod 4 table)
        assert by_label["R1:151"].status == DISCREPANCY
        assert by_label["R1:271"].status == DISCREPANCY
        assert by_label["least_prime_residue_1mod4"].status == PASS

    def test_example_9_2(self):
        r = run_scenario("example-9.2")
        assert r.passed
        by_label = {row.label: row for row in r.rows}
        # every printed element carries the claimed symbol
        for lst, elements in (("N1", [5, 13, 17, 37, 53, 97, 101, 113, 173, 229]),
                              ("N3", [59, 67, 107, 139, 167, 179, 211, 223, 227, 239])):
            for n in elements:
                assert by_label[f"{lst}:{n}"].status == PASS
        # the published head of N3 is 59 but the least qualifying prime is 7
        assert by_label["least_prime_nonresidue_3mod4"].status == DISCREPANCY
        assert by_label["least_prime_nonresidue_3mod4"].computed == "7"
        assert by_label["least_prime_nonresidue_1mod4"].status == PASS

    def test_example_11_1(self):
        r = run_scenario("example-11.1")
        assert r.passed
        by_label = {row.label: row for row in r.rows}
        assert by_label["p_is_prime"].status == PASS
        assert by_label["k_divides_p_minus_1"].status == PASS
        assert by_label["subgroup_order"].status == PASS
        assert by_label["x"].status == PASS
        assert by_label["main_term"].status == PASS
        # every printed element is an exact-order element, flagged DISCREPANCY
        # against the inverted published label
        for name in ("N1:161", "N3:27", "N5:29", "N7:23"):
            assert by_label[name].status == DISCREPANCY
            assert by_label[f"{name}:order"].status == PASS
        # red-marked elements are prime
        for name in ("N1:193:prime", "N3:59:prime", "N5:877:prime", "N7:919:prime"):
            assert by_label[name].status == PASS
        # published table omissions, confirmed by recomputation
        assert by_label["N5:exact-order-prefix"].status == DISCREPANCY
        assert "[5]" in by_label["N5:exact-order-prefix"].note
        assert by_label["N7:exact-order-prefix"].status == DISCREPANCY
        assert "[935]" in by_label["N7:exact-order-prefix"].note
        assert by_label["N1:exact-order-prefix"].status == PASS
        assert by_label["N3:exact-order-prefix"].status == PASS
        assert by_label["least_prime_generator_7mod8"].status == PASS
        assert by_label["least_prime_generator_7mod8"].computed == "23"

    def test_example_11_2(self):
        r = run_scenario("example-11.2")
        assert r.passed
        by_label = {row.label: row for row in r.rows}
        assert by_label["subgroup_order"].status == PASS
        assert by_label["x"].status == PASS
        assert by_label["main_term"].status == PASS
        assert by_label["least_prime_generator_1mod3"].computed == "19"
        assert by_label["least_prime_generator_2mod3"].computed == "83"
        assert by_label["least_prime_generator_1mod3"].status == PASS
        assert by_label["least_prime_generator_2mod3"].status == PASS
        assert by_label["N1:exact-order-prefix"].status == PASS
        assert by_label["N2:exact-order-prefix"].status == PASS
        # Euler-criterion leads reported in the notes
        assert any("7" in n for n in r.notes)

    def test_f41(self):
        r = run_scenario("f41")
        assert r.passed
        by_label = {row.label: row for row in r.rows}
        assert by_label["residue_set"].status == PASS
        assert by_label["nonresidue_set"].status == PASS
        assert by_label["nn_pair_13_14"].status == PASS
        assert by_label["twin_nonresidue_density_x30"].status == PASS
        assert by_label["twin_nonresidue_density_x41"].status == DISCREPANCY

    def test_no_scenario_has_fail_rows(self):
        for name in list_scenarios():
            r = run_scenario(name)
            fails = [row for row in r.rows if row.status == FAIL]
            assert fails == [], f"{name}: {fails}"

    @pytest.mark.parametrize("name,most", [("example-11.1", 290), ("example-11.2", 130)])
    def test_exact_order_lists_share_their_primes_powers(self, name, most, monkeypatch):
        """The pows of the scenario's has_exact_order call, p-1's factor
        checks included (from a cold cache): 1,034 and 308 when each list was
        its own call and each composite entry paid one pow per stage, 447 and
        122 when 11.1's k = 3 stage paid one pow per prime (now 282 and 122:
        the cubic indices leave it the pows of 2 and 3)."""
        counted, inside = [0], [False]
        has_exact_order = scenarios.has_exact_order

        def counting_pow(*args):
            counted[0] += inside[0]
            return pow(*args)

        def spy(*args, **kwargs):
            inside[0] = True
            try:
                return has_exact_order(*args, **kwargs)
            finally:
                inside[0] = False

        bigmod._checked_factors.cache_clear()
        monkeypatch.setattr(bigmod, "pow", counting_pow, raising=False)
        monkeypatch.setattr(scenarios, "has_exact_order", spy)
        assert run_scenario(name).passed
        assert 0 < counted[0] <= most

    @pytest.mark.parametrize("name,most", [("example-11.1", 268), ("example-11.2", 54)])
    def test_a_run_pays_few_powers_mod_p(self, name, most, monkeypatch):
        """Every pow mod p of a whole run, from a cold cache of p-1's factor
        checks: 849 and 262 when each printed element also paid
        multiplicative_order and 11.1's k = 3 stage one pow per prime; 315 and
        192 when 11.2's k = 7 verdicts paid one pow per prime; 315 and 72
        when each printed element paid its own verdict; 268 and 58 while
        separate reciprocity stages combined their flags; 268 and 54 now."""
        p = parse_integer_expr(scenarios._load_fixtures()[name]["p"])
        counted = [0]

        def counting_pow(*args):
            counted[0] += args[2:] == (p,)
            return pow(*args)

        bigmod._checked_factors.cache_clear()
        for module in (bigmod, residues):
            monkeypatch.setattr(module, "pow", counting_pow, raising=False)
        assert run_scenario(name).passed
        assert 0 < counted[0] <= most

    def test_septic_powers_are_those_no_leaf_takes(self, monkeypatch):
        """example-11.2's powers with exponent (p-1)/7 in bigmod, from cold
        caches: 139 when every prime of its k = 7 stage and its searches paid
        one, 6 while the searches' short blocks paid one for each base 2 and
        7; now 2.  One finds the root of unity c of pi = gcd(p, z - c), and
        one is the septic index of the prime 7, which the leaf does not take:
        the exact-order pass pays it, and the searches' blocks, whose base 2
        takes the leaf, read it from the memo."""
        p = parse_integer_expr(scenarios._load_fixtures()["example-11.2"]["p"])
        counted = []

        def counting_pow(*args):
            if args[1:] == ((p - 1) // 7, p):
                counted.append(args[0])
            return pow(*args)

        for cache in (bigmod._checked_factors, bigmod._cyclotomic_prime, bigmod._stickelberger_tables,
                      bigmod._paid_index):
            cache.cache_clear()
        monkeypatch.setattr(bigmod, "pow", counting_pow, raising=False)
        assert run_scenario("example-11.2").passed
        assert sorted(counted) == [2, 7]

    @pytest.mark.parametrize("name", ["example-11.1", "example-11.2"])
    def test_order_rows_agree_with_the_exact_order_pass(self, name, monkeypatch):
        """The rows take the order (p-1)/k of a printed element from the
        has_exact_order pass: multiplicative_order equals it exactly on the
        elements the pass flags, and the pass sees every printed element."""
        fix = scenarios._load_fixtures()[name]
        p, k = parse_integer_expr(fix["p"]), fix["k"]
        factors = {int(f): e for f, e in fix["p_minus_1_factors"].items()}
        passes = []
        has_exact_order = scenarios.has_exact_order

        def spy(ns, *args):
            flags = has_exact_order(ns, *args)
            passes.append(dict(zip(ns.tolist(), flags.tolist())))
            return flags

        monkeypatch.setattr(scenarios, "has_exact_order", spy)
        rows = {row.label: row for row in run_scenario(name).rows}
        [flagged] = passes
        for lst in fix["lists"]:
            for n in lst["elements"]:
                exact = multiplicative_order(n, p, factors) == (p - 1) // k
                assert flagged[n] == exact, n
                assert rows[f"{lst['name']}:{n}:order"].status == (PASS if exact else FAIL)

    def test_an_unflagged_element_keeps_its_true_order(self, monkeypatch):
        """An element the pass does not flag is ordered by multiplicative_order,
        so a FAIL row prints the order it has: 25 (in class 1 mod 8, order
        (p-1)/6), 64 (outside every list's class) and 1001 and 1009 (above
        list_limit, of order (p-1)/9 and (p-1)/3) mod 2^128+51."""
        fixtures = scenarios._load_fixtures()
        fix = fixtures["example-11.1"]
        fix["lists"][0]["elements"] = fix["lists"][0]["elements"] + [25, 64, 1001, 1009]
        monkeypatch.setattr(scenarios, "_load_fixtures", lambda: fixtures)
        rows = {row.label: row for row in run_scenario("example-11.1").rows}
        for n, index, status in ((25, 6, FAIL), (64, 6, FAIL), (1001, 9, FAIL), (1009, 3, PASS)):
            assert (P128 - 1) // multiplicative_order(n, P128, P128_FACTORS) == index
            row = rows[f"N1:{n}:order"]
            assert (row.computed, row.status) == (f"(p-1)/{index}", status), n
