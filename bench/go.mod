// The benchmark is its own module so that it is built from its own build
// file and nothing under it is part of the repository's `./...`. The import
// path keeps the gradoop/ prefix, which is what lets it import the
// program's internal packages: it measures them from outside, through their
// exported functions only.
module gradoop/bench

go 1.24

require gradoop v0.0.0

replace gradoop => ../
