module deepthermo/bench

go 1.22

require deepthermo v0.0.0

replace deepthermo => ../
