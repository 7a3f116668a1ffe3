package partition

// The graph generators of partition_test.go, for the external golden test
// (which must live outside the package to import the root module).
var (
	RandomGraph    = randomGraph
	CommunityGraph = communityGraph
)
