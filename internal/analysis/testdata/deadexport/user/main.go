// Command user is the module that replaces the fixture module with the
// local tree, as bench/ replaces repro.
package main

import (
	"fmt"

	"deadfix/lib"
)

func main() {
	fmt.Println(lib.UsedByReplacer(), lib.Total(lib.Square(2)))
}
