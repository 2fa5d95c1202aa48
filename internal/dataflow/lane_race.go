//go:build race

package dataflow

// scribbleLanes: a race build scribbles over every lane given back.
const scribbleLanes = true
