// The benchmark is a module of its own so that the repository's build and
// tier-1 tests never depend on it. Its import path sits under the root
// module's, which is what lets it import tbpoint/internal/...
module tbpoint/bench

go 1.22

require tbpoint v0.0.0

replace tbpoint => ../
