package partition

// The graph generators of partition_test.go, for the external golden test
// (which must live outside the package to import the root module).
var (
	RandomGraph    = randomGraph
	CommunityGraph = communityGraph
)

// Busy is the process-wide count of busy bisection goroutines, which a test
// fills to keep a build on one goroutine.
var Busy = &busy
