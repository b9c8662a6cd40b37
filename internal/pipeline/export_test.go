package pipeline

// MemLoopImage exposes the memory-loop test image to the external
// pipeline_test package.
var MemLoopImage = memLoopImage
