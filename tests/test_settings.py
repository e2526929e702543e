"""Checks on the test settings themselves."""

pytest_plugins = ["pytester"]


def test_a_failing_property_test_fails_alone(pytester, pytestconfig):
    # to report a failure hypothesis imports libcst, which warns; under the
    # suite's warning filters that must not end the run at the first failure
    filters = pytestconfig.getini("filterwarnings")
    assert "error::DeprecationWarning" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_passes():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
