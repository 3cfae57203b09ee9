// Fixture for the deadexport analyzer: a package whose name ends in
// "test" holds helpers that only tests import (the httptest
// convention), so its unused exports are not findings.
package deadexporttest

// Oracle is used by tests only.
func Oracle() int { return 1 }
