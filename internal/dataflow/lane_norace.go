//go:build !race

package dataflow

const scribbleLanes = false
