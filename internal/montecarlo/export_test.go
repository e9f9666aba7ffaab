package montecarlo

// ChunkSeed and OracleRun expose chunkSeed and the interpreter-trial oracle
// to the external test package (the tests live outside the package so they
// can build fixtures with internal/core, which imports this package).
var (
	ChunkSeed = chunkSeed
	OracleRun = oracleRun
)
