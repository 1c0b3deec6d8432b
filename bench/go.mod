module panda/bench

go 1.22

require panda v0.0.0

replace panda => ../
