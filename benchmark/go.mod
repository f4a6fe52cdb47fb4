module fragdb/benchmark

go 1.22

require fragdb v0.0.0

replace fragdb => ../
