package sample

// SetKernel turns the block kernel on or off and returns the previous
// setting, so tests outside the package can build trees both ways.
func SetKernel(on bool) (was bool) {
	was, useKernel = useKernel, on
	return was
}
